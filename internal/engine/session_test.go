package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/imbalance"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/render"
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

// TestTopDownAccess: only the entry frame shows before any expansion, with
// a +: the paper's "forces the user to approach performance data in a
// top-down fashion".
func TestTopDownAccess(t *testing.T) { checkScript(t, core.Fig1Tree(), "ls") }

func TestExpandCollapse(t *testing.T) { checkScript(t, core.Fig1Tree(), "expand 0", "collapse 0") }

// TestHotPathExpandsAndSelects: a hot path opens every scope on it and
// selects its end, where the next one starts.
func TestHotPathExpandsAndSelects(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "hot cost", "hot cost")
}

// TestThresholdAffectsHotPath: each threshold gives its own path, and one
// out of range restores the default.
func TestThresholdAffectsHotPath(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "threshold 0.8", "hot cost", "view flat", "view cc", "threshold 0.5", "hot cost", "view flat", "view cc", "threshold -1", "hot cost")
}

func TestZoom(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "expand 0", "zoom 1", "ls", "out", "view flat", "zoom 0")
}

func TestCallersViewLazyExpansion(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "view callers", "ls", "expand 1")
}

func TestFlattenInFlatView(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "flatten", "view flat", "flatten", "flatten", "unflatten")
}

// TestSwitchViewResetsState: a view switch drops expansion and selection.
func TestSwitchViewResetsState(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "hot cost", "view flat", "hot cost")
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
	checkScript(t, core.Fig1Tree(), "expand 0", "sort cost:excl")
}

func TestPlotPerRank(t *testing.T) {
	// Build a small multi-rank run, merge it, and plot a scope.
	spec := workloads.PFLOTRAN()
	doc, profs, res := sampleWorkload(t, spec, 4)
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
	if _, err := Exec(s, fmt.Sprintf("plot CYCLES %d", imbalance.MaxBins+1), &b); err == nil {
		t.Fatal("bins above imbalance.MaxBins accepted")
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

// TestHotPathInDerivedViews: with nothing selected, a hot path in the
// Callers View starts at the hottest root, and in the Flat View at the
// hottest module.
func TestHotPathInDerivedViews(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "view callers", "hot cost", "view flat", "hot cost")
}

// TestExpandAllInCallersView: expandall on the recursive procedure's root
// shows its whole caller trie (g's six rows below it in Figure 2b).
func TestExpandAllInCallersView(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "view callers", "expandall 1")
}

// TestRenderHTMLAllViews: the HTML report holds the three views under
// their headings, the Calling Context View's hot path highlighted unless
// no column is asked for.
func TestRenderHTMLAllViews(t *testing.T) {
	var b strings.Builder
	s := session(t)
	defer s.Close()
	if err := s.RenderHTML(&b, "toy", 0); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Calling Context View", "Callers View", "Flat View", "file1.c", "leaf hot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	b.Reset()
	s2 := session(t)
	defer s2.Close()
	if err := s2.RenderHTML(&b, "toy", -1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "leaf hot") {
		t.Fatal("hot path highlighted despite being disabled")
	}
}

// TestRenderHTMLMatchesExpandAll: each view of the HTML report is what a
// fresh session renders of it after SwitchView, HotPath and ExpandAll(nil),
// with no limits and with top and depth limits, on Figure 1 and on a bushy
// tree.
func TestRenderHTMLMatchesExpandAll(t *testing.T) {
	for _, tree := range []*core.Tree{core.Fig1Tree(), bushyTree(t, 300, 3)} {
		for _, lim := range [][2]int{{0, 0}, {2, 3}, {1, 0}, {0, 2}} {
			snap := NewSnapshot(expdb.New(tree))
			open := func() *Session {
				s := NewSession(snap)
				s.SetLimits(lim[0], lim[1])
				return s
			}
			var got, want strings.Builder
			err := open().RenderHTML(&got, "t", 0)
			want.WriteString("<!-- t: calling context / callers / flat -->\n")
			for v, name := range []string{"Calling Context View", "Callers View", "Flat View"} {
				f := open()
				if f.SwitchView(ViewKind(v)); v == 0 {
					f.HotPath(0)
				}
				err = errors.Join(err, f.ExpandAll(nil), render.RenderHTML(&want, "t — "+name, f.walk, f.reg, f.options(render.Options{})))
			}
			if err != nil || got.String() != want.String() {
				t.Fatalf("%s, top %d depth %d: %v %s", tree.Program, lim[0], lim[1], err, oracle.FirstDiff(got.String(), want.String()))
			}
		}
	}
}
