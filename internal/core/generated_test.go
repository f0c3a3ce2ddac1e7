package core_test

// Properties of the views, the generators' coverage and the views'
// allocation contracts, on the seeded trees of internal/oracle.

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/oracle"
)

// Property: for any random CCT, the root's inclusive cost equals the sum of
// all Base values (conservation), and every frame's inclusive is at least
// its exclusive.
func TestMetricConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree, total := oracle.RandomCCTShape(seed, 200, oracle.CCTShape{Cols: 1})
		tree.ComputeMetrics()
		if tree.Total(0) != total {
			return false
		}
		ok := true
		core.Walk(tree.Root, func(n *core.Node) bool {
			if n.Incl.Get(0) < n.Excl.Get(0)-1e-9 {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: flat-view and callers-view aggregation conserve exclusive
// costs at statement level (statements' exclusives are disjoint samples).
func TestFlatStmtConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree, total := oracle.RandomCCTShape(seed, 150, oracle.CCTShape{Cols: 1})
		tree.ComputeMetrics()
		v := core.BuildFlatView(tree)
		var stmtSum float64
		for _, lm := range v.Roots {
			core.Walk(lm, func(n *core.Node) bool {
				if n.Kind == core.KindStmt {
					stmtSum += n.Excl.Get(0)
				}
				return true
			})
		}
		return stmtSum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every callers-view root row's inclusive cost never exceeds the
// program total, even under recursion (exposed aggregation).
func TestCallersRootBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree, total := oracle.RandomCCTShape(seed, 150, oracle.CCTShape{Cols: 1})
		tree.ComputeMetrics()
		v := core.BuildCallersView(tree)
		for _, r := range v.Roots {
			if r.Incl.Get(0) > total+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFlatViewRandomTreesCoverTheCases keeps the generator honest: the
// differential test means little if its trees never recurse three deep or
// never nest a loop.
func TestFlatViewRandomTreesCoverTheCases(t *testing.T) {
	tree, _ := oracle.RandomCCTShape(3, 600, oracle.CCTShape{Cols: 2, Negative: true})
	var deepest, aliens, nested, negative int
	mods := map[string]bool{}
	var walk func(n *core.Node, recDepth, loopDepth int)
	walk = func(n *core.Node, recDepth, loopDepth int) {
		switch {
		case n.Kind == core.KindFrame && n.Name.String() == "rec":
			recDepth++
			deepest = max(deepest, recDepth)
		case n.Kind == core.KindLoop:
			if loopDepth++; loopDepth > 1 {
				nested++
			}
		case n.Kind == core.KindAlien:
			aliens++
		}
		if n.Kind == core.KindFrame {
			mods[n.Mod.String()] = true
			loopDepth = 0
		}
		if n.Base.Get(0) < 0 {
			negative++
		}
		for _, c := range n.Children {
			walk(c, recDepth, loopDepth)
		}
	}
	walk(tree.Root, 0, 0)
	if deepest < 3 || aliens == 0 || nested == 0 || negative == 0 || len(mods) < 2 {
		t.Fatalf("generator lost a case: recursion depth %d, %d inlined, %d nested loops, %d negative costs, %d modules",
			deepest, aliens, nested, negative, len(mods))
	}
}

// cctOf builds the allocation tests' tree: at least 10⁴ scopes under each of
// the given number of entry frames, and the number of flat scopes it maps to.
func cctOf(t *testing.T, entries int) (tree *core.Tree, flatScopes int) {
	tree, _ = oracle.RandomCCTShape(5, 40_000, oracle.CCTShape{Entries: entries, Cols: 4})
	if n := tree.NumNodes(); n < 10_000*entries {
		t.Fatalf("%d scopes under %d entry frames, want 10⁴ each", n, entries)
	}
	for _, lm := range core.BuildFlatView(tree).Roots {
		core.Walk(lm, func(*core.Node) bool { flatScopes++; return true })
	}
	return tree, flatScopes
}

// TestFlatViewAllocations is the allocation contract of the sweep: a tenth
// of the closure-and-map build it replaced at most (5 634, that build's
// 56 341 objects on this tree), and following the flat scopes rather than
// the CCT's — the same subtree under four entry frames instead of two maps
// to the same flat scopes and costs a handful of objects more, not twice as
// many. (Two against one would also count the child indexes of flat scopes
// that only got wide at the end of the first copy: Node.Child builds an
// index at the first lookup that finds the scope wide.)
func TestFlatViewAllocations(t *testing.T) {
	one, flatScopes := cctOf(t, 1)
	sweep := testing.AllocsPerRun(2, func() { core.BuildFlatView(one) })
	t.Logf("%d CCT scopes, %d flat scopes: %v objects", one.NumNodes(), flatScopes, sweep)
	if sweep > 5634 {
		t.Errorf("BuildFlatView allocates %v objects: want 5 634 at most", sweep)
	}
	two, flatScopes2 := cctOf(t, 2)
	four, flatScopes4 := cctOf(t, 4)
	if flatScopes2 != flatScopes || flatScopes4 != flatScopes {
		t.Fatalf("%d flat scopes under one entry frame, %d under two, %d under four", flatScopes, flatScopes2, flatScopes4)
	}
	twice := testing.AllocsPerRun(2, func() { core.BuildFlatView(two) })
	fourfold := testing.AllocsPerRun(2, func() { core.BuildFlatView(four) })
	t.Logf("%d CCT scopes: %v objects; %d CCT scopes: %v objects", two.NumNodes(), twice, four.NumNodes(), fourfold)
	if fourfold > twice+8 {
		t.Errorf("%d CCT scopes cost %v objects, %d cost %v: allocations follow CCT scopes, not flat scopes", two.NumNodes(), twice, four.NumNodes(), fourfold)
	}
}

// TestCallersExpandAllocations pins what the one walk per caller chain
// saves: a full expansion allocates at most 0.6 times what the build that
// re-walked every ancestor instance's chain did (92 984, that build's
// 154 974 allocations on this tree).
func TestCallersExpandAllocations(t *testing.T) {
	tree := oracle.RandomRecursiveTree(20000, 3)
	const runs = 3
	views := make([]*core.CallersView, runs+1) // AllocsPerRun calls once more to warm up
	for i := range views {
		views[i] = core.BuildCallersView(tree)
	}
	got := testing.AllocsPerRun(runs, func() {
		if err := views[0].ExpandAll(); err != nil {
			t.Fatal(err)
		}
		views = views[1:]
	})
	if got > 92984 {
		t.Errorf("ExpandAll allocates %.0f times: want 92 984 at most", got)
	}
	t.Logf("ExpandAll %.0f allocations", got)
}
