package core

import (
	"testing"

	"repro/internal/metric"
)

// TestFlatCallSiteRowsSumExposedInstances checks the call-site row rule
// (DESIGN.md §4.4) where Figure 2 cannot: a self-recursive chain three deep
// through one call site. The call-site row sums the static-rule exclusive
// of the instances exposed with respect to it, so g2 (the first instance
// through a.c:3) contributes and g3, below it, does not; g3's own cost shows
// in the Calling Context View, in the inclusive column and at its statement
// row, which conserves every sample.
func TestFlatCallSiteRowsSumExposedInstances(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("cost", "samples", 1); err != nil {
		t.Fatal(err)
	}
	tree := NewTree("deep", reg)
	frame := func(parent *Node, name string, callLine int) *Node {
		n := parent.Child(Key{Kind: KindFrame, Name: Sym(name), File: Sym("a.c"), Line: 1}, true)
		n.CallFile = Sym("a.c")
		n.CallLine = callLine
		return n
	}
	work := func(fr *Node, line int, v float64) {
		s := fr.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: line}, true)
		s.Base.Add(0, v)
	}
	// m -> g1 -> g2 -> g3, all through the same call site a.c:3.
	m := frame(tree.Root, "m", 0)
	g1 := frame(m, "g", 9)
	work(g1, 2, 1)
	g2 := frame(g1, "g", 3)
	work(g2, 2, 2)
	g3 := frame(g2, "g", 3)
	work(g3, 2, 4)
	tree.ComputeMetrics()

	// CCV is exact: every instance carries its own cost.
	if g3.Excl.Get(0) != 4 || g2.Excl.Get(0) != 2 || g1.Excl.Get(0) != 1 {
		t.Fatal("CCV exclusive wrong")
	}

	fv := BuildFlatView(tree)
	var gx, gz *Node
	Walk(fv.Roots[0], func(n *Node) bool {
		if n.Kind == KindProc && n.Name.String() == "g" {
			gx = n
		}
		if n.Kind == KindCallSite && n.Name.String() == "g" {
			gz = n
		}
		return true
	})
	if gx == nil || gz == nil {
		t.Fatal("flat scopes missing")
	}
	// Proc row: exposed instance g1 only -> (7, 1).
	if gx.Incl.Get(0) != 7 || gx.Excl.Get(0) != 1 {
		t.Fatalf("gx = (%g, %g), want (7, 1)", gx.Incl.Get(0), gx.Excl.Get(0))
	}
	// Call-site row: g2 is the exposed instance w.r.t. the site -> its
	// inclusive (6) and direct-statement exclusive (2). g3 is not exposed
	// to the row: its own 4 is in the CCV and the inclusive column.
	if gz.Incl.Get(0) != 6 || gz.Excl.Get(0) != 2 {
		t.Fatalf("gz = (%g, %g), want (6, 2)", gz.Incl.Get(0), gz.Excl.Get(0))
	}
	var flatExclSum float64
	Walk(fv.Roots[0], func(n *Node) bool {
		if n.Kind == KindStmt {
			flatExclSum += n.Excl.Get(0)
		}
		return true
	})
	// Statement rows DO conserve everything (they sum all instances).
	if flatExclSum != 7 {
		t.Fatalf("flat statement exclusives = %g, want 7", flatExclSum)
	}
}
