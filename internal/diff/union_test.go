package diff

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
)

// orderA, orderB and orderC are three inputs whose shapes differ. Under
// main, B's children are a permutation of A's with g dropped and x added.
// B lacks g and f entirely, so both the key-map merge (at main and g) and
// the same-shape path (at f, between A and C) run with the middle input
// absent.
func orderA(tr *core.Tree) {
	for _, name := range []string{"f", "g", "h", "k"} {
		tr.AddPath(fkey("main"), fkey(name)).Base.Add(0, 10)
	}
	tr.AddPath(fkey("main"), fkey("f"), skey("f.c", 1)).Base.Add(0, 1)
	tr.AddPath(fkey("main"), fkey("f"), skey("f.c", 2)).Base.Add(0, 2)
	tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 1)).Base.Add(0, 3)
	tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 2)).Base.Add(0, 4)
}

func orderB(tr *core.Tree) {
	for _, name := range []string{"k", "h", "x"} {
		tr.AddPath(fkey("main"), fkey(name)).Base.Add(0, 20)
	}
}

func orderC(tr *core.Tree) {
	for _, name := range []string{"g", "f"} {
		tr.AddPath(fkey("main"), fkey(name)).Base.Add(0, 30)
	}
	tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 2)).Base.Add(0, 5)
	tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 3)).Base.Add(0, 6)
	tr.AddPath(fkey("main"), fkey("f"), skey("f.c", 1)).Base.Add(0, 7)
	tr.AddPath(fkey("main"), fkey("f"), skey("f.c", 2)).Base.Add(0, 8)
}

// unionShape renders the union in preorder, one scope per entry, as its
// label path and the inputs that have it ("main/g/g.c: 3 101").
func unionShape(res *Result) []string {
	var out []string
	var walk func(n *core.Node, path string)
	walk = func(n *core.Node, path string) {
		for _, c := range n.Children {
			p := c.Label()
			if path != "" {
				p = path + "/" + p
			}
			var bits strings.Builder
			for i := range res.Inputs {
				if res.PresentIn(c, i) {
					bits.WriteByte('1')
				} else {
					bits.WriteByte('0')
				}
			}
			out = append(out, p+" "+bits.String())
			walk(c, p)
		}
	}
	walk(res.Tree.Root, "")
	return out
}

// TestUnionChildOrder pins the union's child order — first appearance,
// scanning the inputs in argument order — and its presence bits.
func TestUnionChildOrder(t *testing.T) {
	a := newExp(t, "p", 1, []string{"CYCLES"}, orderA)
	b := newExp(t, "p", 1, []string{"CYCLES"}, orderB)
	c := newExp(t, "p", 1, []string{"CYCLES"}, orderC)

	res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"main 11",
		"main/f 10", "main/f/f.c: 1 10", "main/f/f.c: 2 10",
		"main/g 10", "main/g/g.c: 1 10", "main/g/g.c: 2 10",
		"main/h 11", "main/k 11", "main/x 01",
	}
	if got := unionShape(res); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("2-input union:\n got %q\nwant %q", got, want)
	}

	res, err = Diff(Config{}, Input{Exp: a}, Input{Exp: b}, Input{Exp: c})
	if err != nil {
		t.Fatal(err)
	}
	want = []string{
		"main 111",
		"main/f 101", "main/f/f.c: 1 101", "main/f/f.c: 2 101",
		"main/g 101", "main/g/g.c: 1 100", "main/g/g.c: 2 101", "main/g/g.c: 3 001",
		"main/h 110", "main/k 110", "main/x 010",
	}
	if got := unionShape(res); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("3-input union:\n got %q\nwant %q", got, want)
	}
	// The per-input columns follow their scopes through the reordering.
	mc := res.Metrics[0]
	for _, tc := range []struct {
		path  []string
		input int
		want  float64
	}{
		{[]string{"main", "g", "g.c: 2"}, 0, 4},
		{[]string{"main", "g", "g.c: 2"}, 1, 0},
		{[]string{"main", "g", "g.c: 2"}, 2, 5},
		{[]string{"main", "f", "f.c: 2"}, 2, 8},
		{[]string{"main", "x"}, 1, 20},
	} {
		n := res.Tree.FindPath(tc.path...)
		if n == nil {
			t.Fatalf("union lost %v", tc.path)
		}
		if got := n.Base.Get(mc.In[tc.input]); got != tc.want {
			t.Fatalf("%v input %d base = %v, want %v", tc.path, tc.input, got, tc.want)
		}
	}
}

// sameShapeExp builds an experiment of n scopes, four children per scope,
// with a cost at every scope: two of them at different rank counts are the
// same-shape pair a scaling study diffs.
func sameShapeExp(t testing.TB, n, ranks int) *expdb.Experiment {
	return newExp(t, "p", ranks, []string{"CYCLES"}, func(tr *core.Tree) {
		nodes := []*core.Node{tr.Root}
		for i := 1; i <= n; i++ {
			c := nodes[(i-1)/4].AppendChild(core.Key{Kind: core.KindFrame, Name: core.Sym("f"), File: core.Sym("f.c"), ID: uint64(i)})
			c.Base.Add(0, float64(i%7))
			nodes = append(nodes, c)
		}
	})
}

// TestDiffAllocsFlat pins the union's allocation contract: a diff of
// same-shape inputs allocates a fixed set of slabs, not per-scope slices or
// maps, so ten times the scopes costs no more allocations.
func TestDiffAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		a, b := sameShapeExp(t, n, 4), sameShapeExp(t, n, 16)
		return testing.AllocsPerRun(3, func() {
			if _, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2_000), allocs(20_000)
	t.Logf("allocations per Diff: %v at 2k scopes, %v at 20k", small, large)
	if large > small+8 {
		t.Fatalf("Diff allocates %v objects at 2k scopes and %v at 20k: allocations grow with the tree", small, large)
	}
}

// readComparisons reads every comparison column-plane of a union.
func readComparisons(res *Result) {
	st := res.Tree.MetricStore()
	for _, mc := range res.Metrics {
		for _, cols := range [][]int{mc.Delta, mc.Ratio, mc.Loss} {
			for _, col := range cols {
				st.ColRead(metric.PlaneIncl, col)
				st.ColRead(metric.PlaneExcl, col)
			}
		}
	}
}

// TestRecomputeMallocsFlat pins the allocations of Recompute followed by a
// read of every comparison column-plane: the same count on a union ten
// times larger.
func TestRecomputeMallocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		res, err := Diff(Config{}, Input{Exp: sameShapeExp(t, n, 4)}, Input{Exp: sameShapeExp(t, n, 16)})
		if err != nil {
			t.Fatal(err)
		}
		recompute := func() {
			res.Recompute()
			readComparisons(res)
		}
		recompute() // the first read allocates the evaluated slabs
		return testing.AllocsPerRun(20, recompute)
	}
	small, large := allocs(2_000), allocs(20_000)
	t.Logf("allocations per Recompute and read: %v at 2k scopes, %v at 20k", small, large)
	if small != large {
		t.Fatalf("Recompute and a read of every comparison column allocate %v times at 2k scopes and %v at 20k", small, large)
	}
}
