// Equivalence tests for the columnar query engine (DESIGN.md §10). The
// struct-of-arrays metric store, the compiled derived-metric kernels and
// the slab-hoisting sorts and hot paths are performance work only: every
// presented value must stay bitwise identical, and every scope order must
// stay order-identical, to the straightforward per-node reference
// implementations they replaced — across every workload, rank count and
// database format version.
package repro

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/workloads"
)

// --- reference implementations --------------------------------------------
//
// These are deliberately naive transcriptions of Equations 1-3 and of the
// pre-columnar sort semantics, built on the public per-node Get API only:
// dense per-node slices, recursive accumulation in child-list order, and
// sort.SliceStable with the historical less function.

// refBase reads a node's Base vector into a dense slice.
func refBase(n *core.Node, ncols int) []float64 {
	out := make([]float64, ncols)
	for id := 0; id < ncols; id++ {
		out[id] = n.Base.Get(id)
	}
	return out
}

// refMetrics recomputes presented metrics per Equations 1 and 2 with a
// per-node recursion, then applies derived formulas per node in registry
// order — the semantics ComputeMetrics and the stores' derived-column
// reads implement with column sweeps. Accumulation adds children in child-list order, the same
// addition sequence the columnar postorder pass replays, so the reference
// is bitwise comparable (base values are non-negative, so adding a zero is
// a bitwise no-op in both).
func refMetrics(t *testing.T, tr *core.Tree) (incl, excl map[*core.Node][]float64) {
	t.Helper()
	ncols := tr.Reg.Len()
	incl = map[*core.Node][]float64{}
	excl = map[*core.Node][]float64{}
	var visit func(n *core.Node) (iv, frameLocal []float64)
	visit = func(n *core.Node) ([]float64, []float64) {
		iv := refBase(n, ncols)
		fl := refBase(n, ncols)
		for _, c := range n.Children {
			ci, cf := visit(c)
			for id := 0; id < ncols; id++ {
				iv[id] += ci[id]
			}
			if c.Kind != core.KindFrame {
				for id := 0; id < ncols; id++ {
					fl[id] += cf[id]
				}
			}
		}
		var ex []float64
		switch n.Kind {
		case core.KindFrame:
			ex = append([]float64(nil), fl...)
		case core.KindLoop, core.KindAlien:
			ex = refBase(n, ncols)
			for _, c := range n.Children {
				if c.Kind == core.KindStmt {
					for id := 0; id < ncols; id++ {
						ex[id] += c.Base.Get(id)
					}
				}
			}
		case core.KindRoot:
			ex = make([]float64, ncols)
		default:
			ex = refBase(n, ncols)
		}
		incl[n], excl[n] = iv, ex
		return iv, fl
	}
	visit(tr.Root)

	// Derived columns, evaluated per node over the reference values with the
	// expression tree (the store's -0 normalization applied) — in registry
	// order, so chained formulas see the earlier derived results, exactly
	// like both real implementations.
	for _, d := range tr.Reg.Columns() {
		if d.Kind != metric.Derived {
			continue
		}
		e, err := d.Expr()
		if err != nil {
			t.Fatal(err)
		}
		for n := range incl {
			for _, row := range [][]float64{excl[n], incl[n]} {
				v, err := e.Eval(metric.EnvFunc(func(id int) float64 { return row[id] }))
				if err != nil {
					t.Fatal(err)
				}
				if v == 0 {
					v = 0
				}
				row[d.ID] = v
			}
		}
	}
	return incl, excl
}

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

// refHotPath is Equation 3 by direct descent over per-node Get reads.
func refHotPath(start *core.Node, metricID int, t float64) []*core.Node {
	if start == nil {
		return nil
	}
	if t <= 0 {
		t = core.DefaultHotPathThreshold
	}
	path := []*core.Node{start}
	cur := start
	for {
		var best *core.Node
		var bestVal float64
		for _, c := range cur.Children {
			if v := c.Incl.Get(metricID); best == nil || v > bestVal {
				best, bestVal = c, v
			}
		}
		if best == nil {
			return path
		}
		parentVal := cur.Incl.Get(metricID)
		if parentVal <= 0 || bestVal < t*parentVal {
			return path
		}
		path = append(path, best)
		cur = best
	}
}

// --- checks ----------------------------------------------------------------

func checkMetricsEquiv(t *testing.T, tr *core.Tree) {
	t.Helper()
	// Recompute from Base through the columnar path; overrides (summary
	// columns) are wiped by recomputation in both the columnar and the
	// reference world, so the comparison covers base-derived state.
	tr.ComputeMetrics()
	refIncl, refExcl := refMetrics(t, tr)
	ncols := tr.Reg.Len()
	core.Walk(tr.Root, func(n *core.Node) bool {
		for id := 0; id < ncols; id++ {
			if got, want := n.Incl.Get(id), refIncl[n][id]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: inclusive col %d = %v (%#x), reference %v (%#x)",
					n.Label(), id, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := n.Excl.Get(id), refExcl[n][id]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: exclusive col %d = %v (%#x), reference %v (%#x)",
					n.Label(), id, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		return true
	})
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
				want := refHotPath(start, col, th)
				if len(got) != len(want) {
					t.Fatalf("HotPath(%s, col %d, t=%v): %d scopes, reference %d",
						start.Label(), col, th, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("HotPath(%s, col %d, t=%v): step %d is %q, reference %q",
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
// format versions, checking metric recomputation bitwise and sort orders
// and hot paths order-exactly against the reference implementations.
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
