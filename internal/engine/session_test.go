package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/render"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// newTestSession seals a tree as a snapshot and opens one session over it
// — the single-user shape callpath.NewSession builds.
func newTestSession(tr *core.Tree, src *prog.Program) *Session {
	s := NewSession(NewSnapshot(expdb.New(tr)))
	s.SetSource(src)
	return s
}

func session(t *testing.T) *Session {
	t.Helper()
	return newTestSession(core.Fig1Tree(), nil)
}

func rowLabels(rows []render.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Node.Label()
	}
	return out
}

func TestTopDownAccess(t *testing.T) {
	s := session(t)
	rows := s.VisibleRows()
	// Only the entry frame is visible before any expansion: the paper's
	// "forces the user to approach performance data in a top-down
	// fashion".
	if len(rows) != 1 || rows[0].Node.Label() != "m" {
		t.Fatalf("initial rows = %v", rowLabels(rows))
	}
	if !rows[0].HasHidden {
		t.Fatal("collapsed root not marked expandable")
	}
}

func TestExpandCollapse(t *testing.T) {
	s := session(t)
	rows := s.VisibleRows()
	m := rows[0].Node
	s.Expand(m)
	rows = s.VisibleRows()
	// m + its two children (f sorted before g by inclusive cost).
	want := []string{"m", "f", "g"}
	got := rowLabels(rows)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("rows after expand = %v, want %v", got, want)
	}
	s.Collapse(m)
	if n := len(s.VisibleRows()); n != 1 {
		t.Fatalf("rows after collapse = %d", n)
	}
}

func TestHotPathExpandsAndSelects(t *testing.T) {
	s := session(t)
	path := s.HotPath(0)
	if len(path) == 0 {
		t.Fatal("no hot path")
	}
	end := path[len(path)-1]
	if s.Selected() != end {
		t.Fatal("hot path endpoint not selected")
	}
	// Every scope along the path is now visible.
	rows := s.VisibleRows()
	visible := map[*core.Node]bool{}
	for _, r := range rows {
		visible[r.Node] = true
	}
	for _, n := range path {
		if n.Kind == core.KindRoot {
			continue
		}
		if !visible[n] {
			t.Fatalf("hot path scope %q not visible", n.Label())
		}
	}
	// Scopes off the path stay collapsed: g3 (m's other child) is
	// visible but its statement child is not.
	if visible[end] && len(rows) > len(path)+3 {
		t.Fatalf("too many rows after hot path: %v", rowLabels(rows))
	}
}

func TestThresholdAffectsHotPath(t *testing.T) {
	s := session(t)
	s.SetThreshold(0.8)
	p80 := s.HotPath(0)
	// A hot path selects its endpoint; start over from the top for a
	// fair comparison.
	s.Select(nil)
	s.SetThreshold(0.5)
	p50 := s.HotPath(0)
	if len(p80) >= len(p50) {
		t.Fatalf("t=0.8 path (%d) should be shorter than t=0.5 (%d)", len(p80), len(p50))
	}
	// Out-of-range threshold restores the default.
	s.Select(nil)
	s.SetThreshold(-1)
	if len(s.HotPath(0)) != len(p50) {
		t.Fatal("default threshold not restored")
	}
}

func TestZoom(t *testing.T) {
	s := session(t)
	s.Expand(s.VisibleRows()[0].Node) // expand m
	rows := s.VisibleRows()
	var f *core.Node
	for _, r := range rows {
		if r.Node.Label() == "f" {
			f = r.Node
		}
	}
	if err := s.ZoomIn(f); err != nil {
		t.Fatal(err)
	}
	got := rowLabels(s.VisibleRows())
	// f's children: g1 and f's own statement.
	if len(got) != 2 {
		t.Fatalf("zoomed rows = %v", got)
	}
	s.ZoomOut()
	if rowLabels(s.VisibleRows())[0] != "m" {
		t.Fatal("zoom out failed")
	}
	// Zoom only applies to the CC view.
	s.SwitchView(ViewFlat)
	if err := s.ZoomIn(f); err == nil {
		t.Fatal("zoom allowed in flat view")
	}
}

func TestCallersViewLazyExpansion(t *testing.T) {
	s := session(t)
	s.SwitchView(ViewCallers)
	rows := s.VisibleRows()
	if len(rows) != 4 {
		t.Fatalf("callers roots = %v", rowLabels(rows))
	}
	// Roots are marked expandable even though children are not yet
	// materialized.
	var g *core.Node
	for _, r := range rows {
		if r.Node.Name.String() == "g" {
			if !r.HasHidden {
				t.Fatal("unexpanded callers root lacks expander")
			}
			g = r.Node
		}
	}
	s.Expand(g)
	rows = s.VisibleRows()
	labels := strings.Join(rowLabels(rows), ",")
	if !strings.Contains(labels, "g,g") && !strings.Contains(labels, "g,f") && !strings.Contains(labels, "g,m") {
		t.Fatalf("caller chain not materialized: %v", rowLabels(rows))
	}
}

func TestFlattenInFlatView(t *testing.T) {
	s := session(t)
	if err := s.FlattenOnce(); err == nil {
		t.Fatal("flatten allowed outside flat view")
	}
	s.SwitchView(ViewFlat)
	if len(s.VisibleRows()) != 1 { // one load module
		t.Fatalf("flat roots = %v", rowLabels(s.VisibleRows()))
	}
	if err := s.FlattenOnce(); err != nil {
		t.Fatal(err)
	}
	if got := rowLabels(s.VisibleRows()); len(got) != 2 {
		t.Fatalf("after flatten = %v", got)
	}
	if err := s.FlattenOnce(); err != nil {
		t.Fatal(err)
	}
	if got := rowLabels(s.VisibleRows()); len(got) != 4 { // 4 procedures
		t.Fatalf("after flatten x2 = %v", got)
	}
	if s.FlattenLevel() != 2 {
		t.Fatalf("level = %d", s.FlattenLevel())
	}
	s.Unflatten()
	if got := rowLabels(s.VisibleRows()); len(got) != 2 {
		t.Fatalf("after unflatten = %v", got)
	}
}

func TestSwitchViewResetsState(t *testing.T) {
	s := session(t)
	s.HotPath(0)
	s.SwitchView(ViewFlat)
	if len(s.VisibleRows()) != 1 {
		t.Fatal("expansion leaked across views")
	}
	if s.Selected() != nil {
		t.Fatal("selection leaked across views")
	}
}

func TestRowAddressing(t *testing.T) {
	s := session(t)
	s.ExpandAll(s.Tree().Root)
	rows := s.VisibleRows()
	for i := range rows {
		n, err := s.RowNode(i)
		if err != nil || n != rows[i].Node {
			t.Fatalf("RowNode(%d) mismatch", i)
		}
	}
	if _, err := s.RowNode(len(rows)); err == nil {
		t.Fatal("out-of-range row resolved")
	}
	if _, err := s.RowNode(-1); err == nil {
		t.Fatal("negative row resolved")
	}
}

func TestSessionRenderNumbersAndHighlight(t *testing.T) {
	s := session(t)
	s.HotPath(0)
	var b strings.Builder
	if err := s.Render(&b, render.Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "  0 *") {
		t.Fatalf("row numbering/highlight missing:\n%s", out)
	}
	if !strings.Contains(out, "cost (I)") {
		t.Fatalf("metric header missing:\n%s", out)
	}
}

func TestSourcePane(t *testing.T) {
	spec := workloads.Toy()
	tree := core.Fig1Tree()
	s := newTestSession(tree, spec.Program)

	// Select h (a frame): the source pane shows its call site.
	h := tree.FindPath("m", "f", "g", "g", "h")
	s.Select(h)
	var b strings.Builder
	if err := s.ShowSource(&b, 2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "file2.c:4") {
		t.Fatalf("source header wrong:\n%s", out)
	}
	if !strings.Contains(out, ">    4 |") {
		t.Fatalf("call line not marked:\n%s", out)
	}

	// Errors: nothing selected / no source program.
	s2 := newTestSession(tree, spec.Program)
	if err := s2.ShowSource(&b, 2); err == nil {
		t.Fatal("no selection accepted")
	}
	s3 := newTestSession(tree, nil)
	s3.Select(h)
	if err := s3.ShowSource(&b, 2); err == nil {
		t.Fatal("missing source program accepted")
	}
}

func TestViewKindString(t *testing.T) {
	if ViewCC.String() == "" || ViewCallers.String() == "" || ViewFlat.String() == "" {
		t.Fatal("empty view names")
	}
	if !strings.Contains(ViewKind(9).String(), "9") {
		t.Fatal("unknown view name")
	}
}

func TestSortAffectsRowOrder(t *testing.T) {
	s := session(t)
	s.Expand(s.VisibleRows()[0].Node)
	s.SetSort(core.SortSpec{MetricID: 0, Exclusive: true})
	got := rowLabels(s.VisibleRows())
	// Exclusive sort puts g3 (excl 3) before f (excl 1).
	if got[1] != "g" {
		t.Fatalf("exclusive sort order = %v", got)
	}
}

func TestPlotPerRank(t *testing.T) {
	// Build a small multi-rank run, merge it, and plot a scope.
	spec := workloads.PFLOTRAN()
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: 4, Params: spec.Params,
		Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(res.Tree, spec.Program)
	s.AttachProfiles(doc, profs)

	// Plot requires a selection in the CC view.
	var b strings.Builder
	if err := s.Plot(&b, "CYCLES", 5); err == nil {
		t.Fatal("plot without selection accepted")
	}
	fs := res.Tree.FindPath("main", "stepper_run", "loop at timestepper.F90: 384", "flow_solve")
	if fs == nil {
		t.Fatal("flow_solve missing")
	}
	s.Select(fs)
	if err := s.Plot(&b, "CYCLES", 5); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"per-rank (scatter):", "histogram:", "flow_solve"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	// Via the REPL.
	b.Reset()
	if _, err := Exec(s, "plot CYCLES 4", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "imbalance=") {
		t.Fatalf("repl plot output:\n%s", b.String())
	}
	if _, err := Exec(s, "plot CYCLES zz", &b); err == nil {
		t.Fatal("bad bins accepted")
	}
	// No profiles attached.
	s2 := newTestSession(res.Tree, nil)
	s2.Select(fs)
	if err := s2.Plot(&b, "CYCLES", 5); err == nil {
		t.Fatal("plot without profiles accepted")
	}
	// Plot outside the CC view.
	s.SwitchView(ViewFlat)
	s.Select(fs)
	if err := s.Plot(&b, "CYCLES", 5); err == nil {
		t.Fatal("plot in flat view accepted")
	}
}

func TestHotPathInDerivedViews(t *testing.T) {
	s := session(t)
	// Callers view: no selection -> starts from the hottest root (m,
	// inclusive 10) and ends there (lazy children get expanded but m has
	// no callers).
	s.SwitchView(ViewCallers)
	path := s.HotPath(0)
	if len(path) == 0 || path[0].Name.String() != "m" {
		t.Fatalf("callers hot path = %v", rowLabels(s.VisibleRows()))
	}
	// Flat view: starts from the only module and descends.
	s.SwitchView(ViewFlat)
	path = s.HotPath(0)
	if len(path) < 2 {
		t.Fatalf("flat hot path too short: %d", len(path))
	}
	if path[0].Kind != core.KindLM {
		t.Fatalf("flat hot path starts at %v", path[0].Kind)
	}
}

func TestExpandAllInCallersView(t *testing.T) {
	s := session(t)
	s.SwitchView(ViewCallers)
	rows := s.VisibleRows()
	// ExpandAll on the recursive procedure's root materializes and shows
	// its whole caller trie (ga's 6 descendants in Figure 2b).
	var g *core.Node
	for _, r := range rows {
		if r.Node.Name.String() == "g" {
			g = r.Node
		}
	}
	s.ExpandAll(g)
	n := len(s.VisibleRows())
	if n != len(rows)+6 {
		t.Fatalf("rows after ExpandAll(g) = %d, want %d", n, len(rows)+6)
	}
}
