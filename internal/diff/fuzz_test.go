package diff

import (
	"bytes"
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
// not panic; when it succeeds, the union must contain every input scope
// and its serialized form must be deterministic and readable.
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
		if _, err := expdb.Read(bytes.NewReader(out1.Bytes())); err != nil {
			t.Fatalf("diff result does not re-read: %v", err)
		}
	})
}
