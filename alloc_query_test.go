// Allocation regression tests for the columnar query engine: once warm,
// re-evaluating derived metrics and comparison columns and sorting copies
// of sibling lists must not allocate at all. The reused buffers (evaluated
// slabs, kernel column lists, label cache) are the mechanism, and these
// tests keep them from regressing silently.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/expdb"
	"repro/internal/metric"
)

// readDerived reads every derived column-plane of a tree, evaluating each
// one the store holds stale.
func readDerived(t *core.Tree) {
	st := t.MetricStore()
	for _, d := range t.Reg.Columns() {
		if d.Kind == metric.Derived {
			st.ColRead(metric.PlaneIncl, d.ID)
			st.ColRead(metric.PlaneExcl, d.ID)
		}
	}
}

// TestDerivedReadSteadyStateAllocs marks the derived columns stale and
// reads every column-plane again: the re-evaluation reuses the slabs.
func TestDerivedReadSteadyStateAllocs(t *testing.T) {
	tr := syntheticCCT(20_000, 7)
	if _, err := tr.Reg.AddDerived("d1", "$0 * 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Reg.AddDerived("d2", "$1 + $0"); err != nil {
		t.Fatal(err)
	}
	tr.ComputeMetrics()
	// The first read allocates the evaluated slabs.
	readDerived(tr)
	allocs := testing.AllocsPerRun(10, func() {
		tr.MetricStore().MarkStale()
		readDerived(tr)
	})
	if allocs != 0 {
		t.Fatalf("re-reading stale derived columns allocates %.1f objects/run, want 0", allocs)
	}
}

// TestDiffKernelAllocs pins the steady state of the comparison columns at
// zero allocations per evaluation of every one of them, over the union of
// two ~500k-scope synthetic experiments with different seeds (the union
// approaches a million scopes, the paper's large-database regime) at rank
// counts that auto-select weak scaling, so the loss formula runs too.
func TestDiffKernelAllocs(t *testing.T) {
	mk := func(seed int64, ranks int) *expdb.Experiment {
		tr := syntheticCCT(500_000, seed)
		tr.ComputeMetrics()
		e := expdb.New(tr)
		e.NRanks = ranks
		return e
	}
	res, err := diff.Diff(diff.Config{},
		diff.Input{Label: "A", Exp: mk(1, 4)}, diff.Input{Label: "B", Exp: mk(2, 16)})
	if err != nil {
		t.Fatal(err)
	}
	recomputeAll := func() {
		res.Tree.MetricStore().MarkStale()
		readDerived(res.Tree)
	}
	recomputeAll() // the first read allocates every evaluated slab
	if allocs := testing.AllocsPerRun(5, recomputeAll); allocs != 0 {
		t.Fatalf("evaluating every comparison column again allocates %v objects per run in steady state, want 0", allocs)
	}
}

// TestSortScopesSteadyStateAllocs sorts copies of every sibling list, as
// sessions do, in a reused buffer.
func TestSortScopesSteadyStateAllocs(t *testing.T) {
	tr := syntheticCCT(20_000, 7)
	tr.ComputeMetrics()
	var lists [][]*core.Node
	core.Walk(tr.Root, func(n *core.Node) bool {
		if len(n.Children) > 1 {
			lists = append(lists, n.Children)
		}
		return true
	})
	specs := []core.SortSpec{{}, {Ascending: true}, {ByLabel: true}}
	var buf []*core.Node
	sortAll := func() {
		for _, spec := range specs {
			for _, l := range lists {
				buf = append(buf[:0], l...)
				core.SortScopes(buf, spec)
			}
		}
	}
	// Warm every direction once: the first sort interns the tie-break
	// labels and grows the buffer.
	sortAll()
	if allocs := testing.AllocsPerRun(5, sortAll); allocs != 0 {
		t.Fatalf("warm SortScopes allocates %.1f objects/run, want 0", allocs)
	}
}
