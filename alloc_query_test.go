// Allocation regression tests for the columnar query engine: once warm,
// re-evaluating derived metrics and sorting copies of sibling lists must
// not allocate at all — the reused buffers (evaluated slabs, kernel column
// lists, label cache) are the mechanism behind the BENCH_query.json
// allocs/op claims, and these tests keep them from regressing silently.
package repro

import (
	"testing"

	"repro/internal/core"
)

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
