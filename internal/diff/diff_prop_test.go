package diff

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
)

// randTree grows a random CCT from a small name pool, so independently
// generated trees overlap structurally but not exactly. Some scopes get a
// zero cost on purpose: a present-but-free scope must stay distinguishable
// from an absent one.
func randTree(rng *rand.Rand, tr *core.Tree) {
	names := []string{"main", "solve", "mpi_wait", "pack", "halo", "io", "norm", "setup"}
	var grow func(n *core.Node, depth int)
	grow = func(n *core.Node, depth int) {
		if depth >= 5 {
			return
		}
		kids := rng.Intn(4)
		for i := 0; i < kids; i++ {
			c := n.Child(fkey(names[rng.Intn(len(names))]), true)
			if rng.Intn(4) > 0 { // 1 in 4 scopes is present with zero cost
				c.Base.Add(0, float64(rng.Intn(1000)))
			}
			grow(c, depth+1)
		}
	}
	root := tr.AddPath(fkey("main"))
	root.Base.Add(0, float64(1+rng.Intn(100)))
	grow(root, 1)
}

// randExp wraps randTree as an experiment with the given rank count.
func randExp(t testing.TB, rng *rand.Rand, ranks int) *expdb.Experiment {
	return newExp(t, "prop", ranks, []string{"CYCLES"}, func(tr *core.Tree) { randTree(rng, tr) })
}

// corresponding returns the node in other matching n's key path, or nil.
func corresponding(other *core.Tree, n *core.Node) *core.Node {
	var keys []core.Key
	for p := n; p != nil && p.Parent != nil; p = p.Parent {
		keys = append(keys, p.Key)
	}
	m := other.Root
	for i := len(keys) - 1; i >= 0 && m != nil; i-- {
		m = m.Child(keys[i], false)
	}
	return m
}

// eachPlaneValue visits incl and excl of one column at one node.
func eachPlaneValue(n *core.Node, col int, f func(plane string, v float64)) {
	f("incl", n.Incl.Get(col))
	f("excl", n.Excl.Get(col))
}

// TestDiffPropSelfDiffZero: diff(A, A) has bitwise-+0 deltas everywhere,
// ratio exactly 1 wherever the cost is non-zero, and — under an explicit
// scaling mode — zero loss.
func TestDiffPropSelfDiffZero(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randExp(t, rng, 1+rng.Intn(8))
		res, err := Diff(Config{Mode: ModeWeak}, Input{Exp: a}, Input{Exp: a})
		if err != nil {
			t.Fatal(err)
		}
		mc := res.Metrics[0]
		core.Walk(res.Tree.Root, func(n *core.Node) bool {
			eachPlaneValue(n, mc.Delta[0], func(plane string, v float64) {
				if math.Float64bits(v) != 0 {
					t.Fatalf("seed %d: %s %s delta = %v (bits %x), want +0",
						seed, n.Label(), plane, v, math.Float64bits(v))
				}
			})
			if c := n.Incl.Get(mc.In[0]); c != 0 {
				if got := n.Incl.Get(mc.Ratio[0]); got != 1 {
					t.Fatalf("seed %d: %s ratio = %v at cost %v, want 1", seed, n.Label(), got, c)
				}
				if got := n.Incl.Get(mc.Loss[0]); got != 0 {
					t.Fatalf("seed %d: %s loss = %v, want 0", seed, n.Label(), got)
				}
			}
			if !res.PresentIn(n, 0) || !res.PresentIn(n, 1) {
				t.Fatalf("seed %d: %s not present in both halves of a self-diff", seed, n.Label())
			}
			return true
		})
	}
}

// TestDiffPropAntisymmetry: swapping the arguments negates every delta
// bitwise (+0 stays +0, never −0) and inverts every ratio where defined.
func TestDiffPropAntisymmetry(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		a, b := randExp(t, rng, 1), randExp(t, rng, 1)
		ab, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
		if err != nil {
			t.Fatal(err)
		}
		ba, err := Diff(Config{}, Input{Exp: b}, Input{Exp: a})
		if err != nil {
			t.Fatal(err)
		}
		if ab.Tree.NumNodes() != ba.Tree.NumNodes() {
			t.Fatalf("seed %d: union sizes differ under swap: %d vs %d",
				seed, ab.Tree.NumNodes(), ba.Tree.NumNodes())
		}
		fw, bw := ab.Metrics[0], ba.Metrics[0]
		core.Walk(ab.Tree.Root, func(n *core.Node) bool {
			m := corresponding(ba.Tree, n)
			if m == nil {
				t.Fatalf("seed %d: %s missing from swapped union", seed, n.Label())
			}
			for _, pl := range []struct {
				name string
				da   func(*core.Node, int) float64
			}{
				{"incl", func(n *core.Node, c int) float64 { return n.Incl.Get(c) }},
				{"excl", func(n *core.Node, c int) float64 { return n.Excl.Get(c) }},
			} {
				d1, d2 := pl.da(n, fw.Delta[0]), pl.da(m, bw.Delta[0])
				want := -d1
				if want == 0 {
					want = 0 // deltas are normalized: zero negates to +0
				}
				if math.Float64bits(d2) != math.Float64bits(want) {
					t.Fatalf("seed %d: %s %s delta %v does not negate to %v (got %v)",
						seed, n.Label(), pl.name, d1, want, d2)
				}
				q1, q2 := pl.da(n, fw.Ratio[0]), pl.da(m, bw.Ratio[0])
				if q1 != 0 && q2 != 0 {
					if r := q1 * q2; math.Abs(r-1) > 1e-12 {
						t.Fatalf("seed %d: %s %s ratios %v·%v = %v, want 1", seed, n.Label(), pl.name, q1, q2, r)
					}
				}
			}
			// Presence swaps with the argument order.
			if ab.PresentIn(n, 0) != ba.PresentIn(m, 1) || ab.PresentIn(n, 1) != ba.PresentIn(m, 0) {
				t.Fatalf("seed %d: %s presence did not swap", seed, n.Label())
			}
			return true
		})
	}
}

// TestDiffPropUnionMonotonic: the union has at least as many scopes as the
// largest input and no more than the inputs' sum, and every input scope
// appears in the union (flagged present).
func TestDiffPropUnionMonotonic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		nIn := 2 + rng.Intn(3)
		ins := make([]Input, nIn)
		sum, max := 0, 0
		for i := range ins {
			ins[i].Exp = randExp(t, rng, 1)
			n := ins[i].Exp.Tree.NumNodes()
			sum += n
			if n > max {
				max = n
			}
		}
		res, err := Diff(Config{}, ins...)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Tree.NumNodes()
		if got < max || got > sum {
			t.Fatalf("seed %d: union of %d inputs has %d nodes, want in [%d, %d]", seed, nIn, got, max, sum)
		}
		for i, in := range ins {
			core.Walk(in.Exp.Tree.Root, func(n *core.Node) bool {
				if n.Parent == nil {
					return true
				}
				m := corresponding(res.Tree, n)
				if m == nil {
					t.Fatalf("seed %d: input %d scope %s missing from union", seed, i, n.Label())
				}
				if !res.PresentIn(m, i) {
					t.Fatalf("seed %d: input %d scope %s not flagged present", seed, i, n.Label())
				}
				return true
			})
		}
	}
}

// TestDiffPropAbsentVsZero: a scope an input has with zero cost and a
// scope it lacks entirely both read zero cost, and only the presence
// column tells them apart.
func TestDiffPropAbsentVsZero(t *testing.T) {
	a := newExp(t, "p", 1, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main")).Base.Add(0, 10)
		tr.AddPath(fkey("main"), fkey("z")) // present in A, zero cost
	})
	b := newExp(t, "p", 1, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main")).Base.Add(0, 10)
		tr.AddPath(fkey("main"), fkey("w")).Base.Add(0, 0) // absent from A
	})
	res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	z := res.Tree.FindPath("main", "z")
	w := res.Tree.FindPath("main", "w")
	if z == nil || w == nil {
		t.Fatalf("union lost a zero-cost scope: z=%v w=%v", z, w)
	}
	mc := res.Metrics[0]
	for _, n := range []*core.Node{z, w} {
		if got := n.Incl.Get(mc.In[0]); got != 0 {
			t.Fatalf("%s cost in A = %v, want 0", n.Label(), got)
		}
	}
	// Identical costs — but different presence.
	if !res.PresentIn(z, 0) {
		t.Fatal("zero-cost scope z not marked present in A")
	}
	if res.PresentIn(w, 0) {
		t.Fatal("absent scope w marked present in A")
	}
	pc := res.Inputs[0].PresenceCol
	if z.Incl.Get(pc) != 1 || w.Incl.Get(pc) != 0 {
		t.Fatalf("presence column in[A]: z=%v w=%v, want 1, 0", z.Incl.Get(pc), w.Incl.Get(pc))
	}
}

// TestDiffPropJobsDeterminism: the serialized diff is byte-identical for
// any kernel worker count (GOMAXPROCS), and stays so after a
// wipe-and-recompute cycle.
func TestDiffPropJobsDeterminism(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		gen := rng.Int63()
		mk := func(procs int) []byte {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r1 := rand.New(rand.NewSource(gen))
			a := randExp(t, r1, 2)
			b := randExp(t, r1, 8)
			res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
			if err != nil {
				t.Fatal(err)
			}
			// A second ComputeMetrics must leave the serialized union
			// unchanged.
			res.Tree.ComputeMetrics()
			var buf bytes.Buffer
			if err := res.Exp.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if got, want := mk(8), mk(1); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: serialization differs between GOMAXPROCS 8 and 1 (%d vs %d bytes)",
				seed, len(got), len(want))
		}
	}
}

// TestDiffPropRoundTripRandom widens TestDiffRoundTrip: random tree pairs
// survive both formats bitwise, repeatedly.
func TestDiffPropRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		a := randExp(t, rng, 1+rng.Intn(4))
		b := randExp(t, rng, 1+rng.Intn(16))
		res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
		if err != nil {
			t.Fatal(err)
		}
		for _, format := range []struct {
			name  string
			write func(*expdb.Experiment, *bytes.Buffer) error
		}{
			{"v2", func(e *expdb.Experiment, w *bytes.Buffer) error { return e.WriteBinary(w) }},
			{"v1", func(e *expdb.Experiment, w *bytes.Buffer) error { return e.WriteBinaryV1(w) }},
		} {
			var buf bytes.Buffer
			if err := format.write(res.Exp, &buf); err != nil {
				t.Fatal(err)
			}
			got, err := expdb.Read(&buf)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, format.name, err)
			}
			ncols := res.Tree.Reg.Len()
			core.Walk(res.Tree.Root, func(n *core.Node) bool {
				m := corresponding(got.Tree, n)
				if m == nil && n.Parent == nil {
					m = got.Tree.Root
				}
				if m == nil {
					t.Fatalf("seed %d %s: %s lost in round trip", seed, format.name, n.Label())
				}
				for id := 0; id < ncols; id++ {
					if w, g := n.Incl.Get(id), m.Incl.Get(id); math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("seed %d %s: %s incl col %d: %v != %v", seed, format.name, n.Label(), id, g, w)
					}
					if w, g := n.Excl.Get(id), m.Excl.Get(id); math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("seed %d %s: %s excl col %d: %v != %v", seed, format.name, n.Label(), id, g, w)
					}
				}
				return true
			})
		}
	}
}
