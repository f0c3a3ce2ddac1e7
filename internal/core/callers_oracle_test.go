package core

import "testing"

// oracleCallersView is BuildCallersView with every subtrie built by the
// buildSubtrie this package shipped before callers.go walked each caller
// chain once, kept verbatim below as the reference of the differential
// tests here and in flat_workloads_test.go.
func oracleCallersView(t *Tree) *CallersView {
	v := BuildCallersView(t)
	oracleExpandAll(v)
	return v
}

// oracleExpandAll builds every subtrie of v with the reference.
func oracleExpandAll(v *CallersView) {
	for _, root := range v.Roots {
		v.oracleBuildSubtrie(root)
	}
}

// oracleBuildSubtrie re-walks the reversed path of every ancestor instance
// of the same procedure, once per instance.
func (v *CallersView) oracleBuildSubtrie(root *Node) {
	for _, inst := range v.roots[root].instances {
		rev, ancestors := oracleReversedPath(inst)
		// D = deepest reversed-path prefix shared with an ancestor
		// instance; contribute at depths > D only.
		d0 := -1
		for _, anc := range ancestors {
			ra, _ := oracleReversedPath(anc)
			if l := lcp(rev, ra); l > d0 {
				d0 = l
			}
		}
		cur := root
		callee := inst
		for d := 0; d < len(rev); d++ {
			caller := rev[d]
			// Trie levels merge by caller *procedure* (matching the
			// exposure computation); the call site into the callee is
			// kept for display.
			cur = cur.Child(Key{Kind: KindProc, Name: caller.Name, File: caller.File, Line: caller.Line}, true)
			cur.NoSource = caller.NoSource
			if cur.CallLine == 0 {
				cur.CallLine = callee.CallLine
				cur.CallFile = callee.CallFile
			}
			// This trie node covers the reversed-path prefix of length
			// d+1; the instance contributes when that length exceeds
			// the deepest prefix shared with an ancestor instance.
			if d+1 > d0 {
				cur.Incl.AddView(&inst.Incl)
				cur.Excl.AddView(&inst.Excl)
			}
			callee = caller
		}
	}
}

// oracleReversedPath returns the caller-frame chain of inst from innermost
// to outermost, plus the ancestor frames that are instances of the same
// procedure.
func oracleReversedPath(inst *Node) (rev []*Node, sameProc []*Node) {
	id := frameProc(inst)
	for a := inst.Parent; a != nil; a = a.Parent {
		if a.Kind != KindFrame {
			continue
		}
		rev = append(rev, a)
		if frameProc(a) == id {
			sameProc = append(sameProc, a)
		}
	}
	return rev, sameProc
}

// sameCallersView reports the first difference between two expanded
// callers views; see sameScopes.
func sameCallersView(got, want *CallersView) error {
	return sameScopes(got.Reg, got.Roots, want.Roots)
}

// TestCallersViewMatchesOracle is the differential test of the one-walk
// subtrie build: every subtrie equal to the reference, bit for bit, on
// Figure 2's tree, on random trees with one to three entry frames and costs
// of either sign, and on deep random recursion.
func TestCallersViewMatchesOracle(t *testing.T) {
	check := func(name string, mk func() *Tree) {
		t.Helper()
		got := BuildCallersView(mk())
		if err := got.ExpandAll(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sameCallersView(got, oracleCallersView(mk())); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("Figure 2", Fig1Tree)
	for seed := int64(1); seed <= 30; seed++ {
		sh := cctShape{entries: 1 + int(seed%3), cols: 2, negative: true}
		check("random tree", func() *Tree {
			tree, _ := randomCCTShape(seed, 40*int(seed), sh)
			return tree
		})
	}
	for seed := int64(1); seed <= 5; seed++ {
		check("random recursion", func() *Tree { return randomRecursiveTree(20000, seed) })
	}
}

// TestCallersExpandAllocations pins what the one walk per caller chain
// saves: a full expansion allocates at most 0.6 times what the reference's
// per-ancestor re-walks do.
func TestCallersExpandAllocations(t *testing.T) {
	tree := randomRecursiveTree(20000, 3)
	allocs := func(expand func(*CallersView)) float64 {
		const runs = 3
		views := make([]*CallersView, runs+1) // AllocsPerRun calls once more to warm up
		for i := range views {
			views[i] = BuildCallersView(tree)
		}
		return testing.AllocsPerRun(runs, func() {
			expand(views[0])
			views = views[1:]
		})
	}
	got := allocs(func(v *CallersView) {
		if err := v.ExpandAll(); err != nil {
			t.Fatal(err)
		}
	})
	want := allocs(oracleExpandAll)
	if got > 0.6*want {
		t.Errorf("ExpandAll allocates %.0f times, the reference %.0f: more than 0.6 of it", got, want)
	}
	t.Logf("ExpandAll %.0f allocations, reference %.0f", got, want)
}
