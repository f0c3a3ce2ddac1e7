// Equivalence tests for the columnar query engine (DESIGN.md §10). The
// struct-of-arrays metric store, the compiled derived-metric kernels and
// the slab-hoisting sorts and hot paths are performance work only: every
// presented value must stay bitwise identical to the rules as
// internal/oracle states them, and every scope order order-identical to the
// per-node sort it replaced — across every workload, rank count and
// database format version.
package repro

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/oracle"
	"repro/internal/workloads"
)

// --- reference implementations --------------------------------------------
//
// Equations 1-3 and derived cells are internal/oracle's; the sort below is
// the pre-columnar semantics, sort.SliceStable with the historical less
// function over the public per-node Get API.

// refSortScopes is the pre-columnar sort: sort.SliceStable over a closure
// reading per-node vectors, ties (and NaNs, which fail both comparisons)
// broken by label.
func refSortScopes(scopes []*core.Node, spec core.SortSpec) {
	value := func(n *core.Node) float64 {
		if spec.Exclusive {
			return n.Excl.Get(spec.MetricID)
		}
		return n.Incl.Get(spec.MetricID)
	}
	sort.SliceStable(scopes, func(i, j int) bool {
		if spec.ByLabel {
			return scopes[i].Label() < scopes[j].Label()
		}
		a, b := value(scopes[i]), value(scopes[j])
		if a != b {
			if spec.Ascending {
				return a < b
			}
			return a > b
		}
		return scopes[i].Label() < scopes[j].Label()
	})
}

// --- checks ----------------------------------------------------------------

func checkMetricsEquiv(t *testing.T, tr *core.Tree) {
	t.Helper()
	// Recompute from Base through the columnar path. Summary columns have
	// no Base values: recomputation must leave them exactly as decoded, so
	// the oracle, which takes them as the tree stores them, reads the tree
	// first.
	want := oracle.CCT(tr)
	tr.ComputeMetrics()
	if err := want.Check([]*core.Node{tr.Root}, 0); err != nil {
		t.Fatal(err)
	}
}

func checkSortEquiv(t *testing.T, tr *core.Tree) {
	t.Helper()
	last := tr.Reg.Len() - 1
	specs := []core.SortSpec{
		{}, // hpcviewer's default: column 0, inclusive, descending
		{Ascending: true},
		{Exclusive: true},
		{ByLabel: true},
		{MetricID: last},
		{MetricID: last, Exclusive: true, Ascending: true},
	}
	core.Walk(tr.Root, func(n *core.Node) bool {
		if len(n.Children) < 2 {
			return true
		}
		for _, spec := range specs {
			got := append([]*core.Node(nil), n.Children...)
			want := append([]*core.Node(nil), n.Children...)
			core.SortScopes(got, spec)
			refSortScopes(want, spec)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: spec %+v: position %d is %q, reference has %q",
						n.Label(), spec, i, got[i].Label(), want[i].Label())
				}
			}
		}
		return true
	})
}

func checkHotPathEquiv(t *testing.T, tr *core.Tree) {
	t.Helper()
	starts := []*core.Node{tr.Root}
	for _, c := range tr.Root.Children {
		starts = append(starts, c)
		starts = append(starts, c.Children...)
	}
	cols := []int{0}
	if last := tr.Reg.Len() - 1; last > 0 {
		cols = append(cols, last)
	}
	for _, start := range starts {
		for _, col := range cols {
			for _, th := range []float64{0, 0.3, 0.5, 0.9} {
				got := core.HotPath(start, col, th)
				want := oracle.HotPath(start, col, th)
				if len(got) != len(want) {
					t.Fatalf("HotPath(%s, col %d, t=%v): %d scopes, oracle %d",
						start.Label(), col, th, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("HotPath(%s, col %d, t=%v): step %d is %q, oracle %q",
							start.Label(), col, th, i, got[i].Label(), want[i].Label())
					}
				}
			}
		}
	}
}

// --- the matrix ------------------------------------------------------------

// equivExperiment merges a workload at a rank count into an experiment with
// summary columns (multi-rank only — they live in the v2 overrides section)
// and a derived column, mirroring what hpcprof -summaries produces.
func equivExperiment(t *testing.T, name string, ranks int) *expdb.Experiment {
	t.Helper()
	doc, profs := mustMPIProfiles(t, name, ranks)
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	if ranks > 1 {
		cyc := res.Tree.Reg.ByName("CYCLES")
		if cyc == nil {
			t.Fatal("no CYCLES column")
		}
		if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := res.Tree.Reg.AddDerived("work4x", "$0 * 4 - $0"); err != nil {
		t.Fatal(err)
	}
	return expdb.FromMerge(res)
}

// TestColumnarQueryEquivalence runs the full matrix the optimization must
// be invisible across: every workload × {1, 7, 64} ranks × both binary
// format versions, checking metric recomputation bitwise against the oracle and sort orders
// and hot paths order-exactly against the references.
func TestColumnarQueryEquivalence(t *testing.T) {
	formats := []struct {
		name  string
		write func(*expdb.Experiment, *bytes.Buffer) error
	}{
		{"v2", func(e *expdb.Experiment, b *bytes.Buffer) error { return e.WriteBinary(b) }},
		{"v1", func(e *expdb.Experiment, b *bytes.Buffer) error { return e.WriteBinaryV1(b) }},
	}
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			exp := equivExperiment(t, name, ranks)
			for _, f := range formats {
				t.Run(fmt.Sprintf("%s/ranks=%d/%s", name, ranks, f.name), func(t *testing.T) {
					var buf bytes.Buffer
					if err := f.write(exp, &buf); err != nil {
						t.Fatal(err)
					}
					data := buf.Bytes()

					// Sorts and hot paths run over the experiment as read —
					// summary overrides and derived values in place. They
					// sort copies and leave the tree as read, so the metric
					// check, which recomputes it, runs last on the same tree.
					exp, err := expdb.Read(bytes.NewReader(data))
					if err != nil {
						t.Fatal(err)
					}
					checkHotPathEquiv(t, exp.Tree)
					checkSortEquiv(t, exp.Tree)
					checkMetricsEquiv(t, exp.Tree)
				})
			}
		}
	}
}
