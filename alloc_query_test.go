// Allocation regression tests for the columnar query engine: once warm,
// re-evaluating derived metrics and sorting copies of sibling lists must
// not allocate at all — the scratch buffers (topo index, kernel column
// lists, label cache) are the mechanism behind the BENCH_query.json
// allocs/op claims, and these tests keep them from regressing silently.
package repro

import (
	"testing"

	"repro/internal/core"
)

func TestApplyDerivedTreeSteadyStateAllocs(t *testing.T) {
	tr := syntheticCCT(20_000, 7)
	if _, err := tr.Reg.AddDerived("d1", "$0 * 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Reg.AddDerived("d2", "$1 + $0"); err != nil {
		t.Fatal(err)
	}
	tr.ComputeMetrics()
	// First run materializes the output columns and the compiled programs.
	if err := tr.ApplyDerivedTree(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := tr.ApplyDerivedTree(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ApplyDerivedTree allocates %.1f objects/run, want 0", allocs)
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
