package diff

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
)

// fuzzSeedBytes serializes an experiment for the fuzz corpus.
func fuzzSeedBytes(f *testing.F, e *expdb.Experiment) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDiff feeds two serialized databases through the full read → union →
// kernel → re-serialize path. Whatever the readers accept, the diff must
// not panic; when it succeeds, the union must contain every input scope,
// its serialized form must be deterministic and readable, and the cells
// it gathered must agree with those its re-read sums from base values.
func FuzzDiff(f *testing.F) {
	mk := func(program string, ranks int, cols []string, build func(tr *core.Tree)) []byte {
		return fuzzSeedBytes(f, newExp(f, program, ranks, cols, build))
	}
	// Baseline pair: same shape, same metrics, equal ranks.
	f.Add(mk("p", 1, []string{"CYCLES"}, twoProcTree),
		mk("p", 1, []string{"CYCLES"}, twoProcTree))
	// Mismatched metric sets: the common subset diffs, the rest is noted.
	f.Add(mk("p", 1, []string{"CYCLES", "FLOPS"}, twoProcTree),
		mk("p", 1, []string{"CYCLES"}, twoProcTree))
	// Fully disjoint metric sets: the diff must reject, not panic.
	f.Add(mk("p", 1, []string{"CYCLES"}, twoProcTree),
		mk("p", 1, []string{"INSTR"}, twoProcTree))
	// Disjoint trees: every scope is one-sided.
	f.Add(mk("p", 1, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("left")).Base.Add(0, 5)
	}), mk("p", 1, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("start"), fkey("right")).Base.Add(0, 9)
	}))
	// Rank-count mismatch: per-rank normalization and loss columns.
	f.Add(mk("p", 2, []string{"CYCLES"}, twoProcTree),
		mk("p", 64, []string{"CYCLES"}, twoProcTree))
	// Truncated second input: the reader rejects it before the diff runs.
	whole := mk("p", 1, []string{"CYCLES"}, twoProcTree)
	f.Add(whole, whole[:len(whole)*2/3])
	// Permuted children, one dropped and one added: the key-map merge.
	f.Add(mk("p", 1, []string{"CYCLES"}, orderA),
		mk("p", 1, []string{"CYCLES"}, orderB))

	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, err := expdb.Read(bytes.NewReader(da))
		if err != nil {
			return
		}
		b, err := expdb.Read(bytes.NewReader(db))
		if err != nil {
			return
		}
		res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
		if err != nil {
			return // structurally incompatible inputs must fail cleanly
		}
		na, nb, nu := a.Tree.NumNodes(), b.Tree.NumNodes(), res.Tree.NumNodes()
		if nu < na || nu < nb || nu > na+nb {
			t.Fatalf("union has %d nodes from inputs of %d and %d", nu, na, nb)
		}
		var out1, out2 bytes.Buffer
		if err := res.Exp.WriteBinary(&out1); err != nil {
			t.Fatalf("serializing diff result: %v", err)
		}
		if err := res.Exp.WriteBinary(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatal("diff serialization is not deterministic")
		}
		back, err := expdb.Read(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("diff result does not re-read: %v", err)
		}
		checkReSummed(t, res, []*expdb.Experiment{a, b}, back)
	})
}

// checkReSummed checks the union's gathered per-input cells against back,
// the union written as v2 (base values only) and read again, which sums
// Equations 1-2 from base values over the union. The two agree on every
// row within a relative 1e-9 of the magnitude summed, the sum of |base|
// over the input's subtree times its normalization: that bounds the
// rounding of a sum taken in either order, cancelling terms included. A
// cell whose magnitude is not finite (an overflowing, infinite or NaN
// summand) has no such bound and is not compared.
func checkReSummed(t *testing.T, res *Result, ins []*expdb.Experiment, back *expdb.Experiment) {
	t.Helper()
	for _, mc := range res.Metrics {
		for i, in := range ins {
			id := in.Tree.Reg.ByName(mc.Name).ID
			norm, col := res.Inputs[i].Norm, mc.In[i]
			// walk checks u's subtree, postorder, and returns the
			// magnitude of m's, the union restricted to input i being the
			// input's own tree.
			var walk func(u, r, m *core.Node) float64
			walk = func(u, r, m *core.Node) float64 {
				if len(u.Children) != len(r.Children) {
					t.Fatalf("%s: %d children, %d re-read", u.Label(), len(u.Children), len(r.Children))
				}
				mag := 0.0
				if m != nil {
					mag = math.Abs(m.Base.Get(id))
				}
				for j, c := range u.Children {
					var next *core.Node
					if m != nil {
						next = m.Child(c.Key, false)
					}
					mag += walk(c, r.Children[j], next)
				}
				if b, rb := u.Base.Get(col), r.Base.Get(col); math.Float64bits(b) != math.Float64bits(rb) {
					t.Fatalf("%s: base %s[%s] re-reads as %v, was %v", u.Label(), mc.Name, res.Inputs[i].Label, rb, b)
				}
				if scale := mag * norm; !math.IsInf(scale, 0) && !math.IsNaN(scale) {
					for _, p := range [...]struct {
						name      string
						got, summ float64
					}{{"incl", u.Incl.Get(col), r.Incl.Get(col)}, {"excl", u.Excl.Get(col), r.Excl.Get(col)}} {
						if d := math.Abs(p.got - p.summ); !(d <= 1e-9*max(scale, math.Abs(p.got), math.Abs(p.summ))) {
							t.Fatalf("%s: %s %s[%s] is %v, summed from base values %v (magnitude %v)",
								u.Label(), p.name, mc.Name, res.Inputs[i].Label, p.got, p.summ, scale)
						}
					}
				}
				return mag
			}
			walk(res.Tree.Root, back.Tree.Root, in.Tree.Root)
		}
	}
}
