package workloads

// TestSectionVIBAnalysisWorkflow scripts the analysis methodology of the
// paper's Section VI-B on the MOAB profile:
//
//	"Often analysis begins with the Calling Context View to see if there
//	is any calling context that particularly dominates ... If not, the
//	user typically moves to the Callers View to understand how much cost
//	is incurred by each procedure at the top of the rank ordered list ...
//	Once the user knows what procedures and contexts are costly, the user
//	can move to the Flat View to understand the costs associated with a
//	procedure along with its loops and inlined code."

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
)

func TestSectionVIBAnalysisWorkflow(t *testing.T) {
	tree := runSeq(t, MOAB())
	l1 := col(t, tree, "L1_DCM")
	s := engine.NewSession(engine.NewSnapshot(expdb.New(tree)))
	s.SetSource(MOAB().Program)

	// Step 1: Calling Context View, hot path on L1 misses. For MOAB no
	// single calling context dominates the misses: the benchmark loop's
	// three phases split them, so the path stalls at that broad loop
	// (none of its children reaches the 50% threshold) instead of
	// drilling to a leaf — the signal to move to the Callers View.
	path := s.HotPath(l1)
	end := path[len(path)-1]
	if end.Kind == core.KindStmt {
		t.Fatalf("CCV hot path unexpectedly decisive: drilled to %q", end.Label())
	}
	for _, c := range end.Children {
		if c.Incl.Get(l1) >= 0.5*end.Incl.Get(l1) {
			t.Fatalf("endpoint %q has a dominating child %q — path should have continued",
				end.Label(), c.Label())
		}
	}

	// Step 2: the Callers View's rank-ordered top. Rank procedures by
	// exclusive L1 misses: the inlined compare's host and the memset
	// replacement surface near the top even though neither dominates any
	// single calling context.
	s.SwitchView(engine.ViewCallers)
	rows := s.VisibleRows()
	if len(rows) < 4 {
		t.Fatalf("callers rows = %d", len(rows))
	}
	s.SetSort(core.SortSpec{MetricID: l1, Exclusive: true})
	rows = s.VisibleRows()
	top3 := map[string]bool{}
	for _, r := range rows[:3] {
		top3[r.Node.Name.String()] = true
	}
	if !top3["MBCore::get_coords"] {
		var names []string
		for _, r := range rows[:5] {
			names = append(names, r.Node.Name.String())
		}
		t.Fatalf("get_coords not in callers top-3 by exclusive L1: %v", names)
	}

	// Investigate memset's contexts from the Callers View: two callers,
	// one dominant (Figure 4's reading).
	var memset *core.Node
	for _, r := range rows {
		if r.Node.Name.String() == "_intel_fast_memset.A" {
			memset = r.Node
		}
	}
	if memset == nil {
		t.Fatal("memset missing from callers view")
	}
	s.Expand(memset)
	if len(memset.Children) != 2 {
		t.Fatalf("memset contexts = %d", len(memset.Children))
	}

	// Step 3: the Flat View for the costly procedure: its loop and the
	// inlined hierarchy below it (Figure 5's reading).
	s.SwitchView(engine.ViewFlat)
	var gc *core.Node
	for _, r := range s.VisibleRows() {
		core.Walk(r.Node, func(n *core.Node) bool {
			if n.Kind == core.KindProc && n.Name.String() == "MBCore::get_coords" {
				gc = n
				return false
			}
			return true
		})
	}
	if gc == nil {
		t.Fatal("get_coords missing from flat view")
	}
	s.Select(gc)
	// Hot path within the flat subtree drills through loop -> inlined
	// find -> inlined loop -> inlined compare.
	path = s.HotPath(l1)
	kinds := map[core.Kind]bool{}
	names := map[string]bool{}
	for _, n := range path {
		kinds[n.Kind] = true
		names[n.Name.String()] = true
	}
	if !kinds[core.KindLoop] || !kinds[core.KindAlien] {
		t.Fatalf("flat drill-down misses loop/inline scopes: %v", pathLabels(path))
	}
	if !names["SequenceCompare"] {
		t.Fatalf("flat drill-down misses the inlined compare: %v", pathLabels(path))
	}
}

func pathLabels(ns []*core.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Label()
	}
	return out
}
