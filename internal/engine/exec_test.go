package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// execOK runs a script of commands, failing the test on any error.
func execOK(t *testing.T, s *Session, lines ...string) string {
	t.Helper()
	var out strings.Builder
	for _, line := range lines {
		quit, err := Exec(s, line, &out)
		if err != nil {
			t.Fatalf("command %q: %v", line, err)
		}
		if quit {
			t.Fatalf("command %q quit unexpectedly", line)
		}
	}
	return out.String()
}

func TestReplBasicScript(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), workloads.Toy().Program)
	out := execOK(t, s,
		"ls",
		"expand 0",
		"hot cost",
		"metrics",
	)
	if !strings.Contains(out, "m") || !strings.Contains(out, "hot path ends at") {
		t.Fatalf("script output:\n%s", out)
	}
	if !strings.Contains(out, "cost") {
		t.Fatalf("metrics listing missing:\n%s", out)
	}
}

func TestReplQuitAndHelp(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	var out strings.Builder
	quit, err := Exec(s, "help", &out)
	if err != nil || quit {
		t.Fatal("help failed")
	}
	if !strings.Contains(out.String(), "commands:") {
		t.Fatal("help text missing")
	}
	quit, err = Exec(s, "quit", &out)
	if err != nil || !quit {
		t.Fatal("quit did not quit")
	}
	quit, err = Exec(s, "", &out)
	if err != nil || quit {
		t.Fatal("blank line misbehaved")
	}
}

func TestReplViewSwitchAndFlatten(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	out := execOK(t, s,
		"view flat",
		"flatten",
		"flatten",
		"ls",
		"unflatten",
	)
	if !strings.Contains(out, "h") {
		t.Fatalf("flattened view missing procs:\n%s", out)
	}
	if s.FlattenLevel() != 1 {
		t.Fatalf("flatten level = %d", s.FlattenLevel())
	}
}

func TestReplCallersExpand(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	execOK(t, s, "view callers", "ls")
	// Row order: sorted by inclusive cost: m (10), g (9), f (7), h (4).
	out := execOK(t, s, "expand 1")
	if !strings.Contains(out, "g") {
		t.Fatalf("callers expansion output:\n%s", out)
	}
}

func TestReplSortZoomSelectSrc(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), workloads.Toy().Program)
	execOK(t, s, "expand 0", "sort cost:excl")
	out := execOK(t, s, "select 1")
	if !strings.Contains(out, "selected") {
		t.Fatalf("select output: %s", out)
	}
	out = execOK(t, s, "zoom 0", "out")
	_ = out
	// Source for a frame row: select g1 and show its call site.
	execOK(t, s, "expand 0")
	rows := s.VisibleRows()
	var idx int = -1
	for i, r := range rows {
		if r.Node.Label() == "f" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("f not visible: %v", rowLabels(rows))
	}
	srcOut := execOK(t, s, "src "+itoa(idx))
	if !strings.Contains(srcOut, "file1.c:7") {
		t.Fatalf("source pane wrong:\n%s", srcOut)
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}

func TestReplDerived(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	out := execOK(t, s, "derived double = $0 * 2", "metrics")
	if !strings.Contains(out, "double") {
		t.Fatalf("derived column missing:\n%s", out)
	}
	d := s.Registry().ByName("double")
	if d == nil {
		t.Fatal("derived not registered")
	}
	// The column lives in the session overlay, never in the shared store.
	if got := s.cellValue(s.Tree().Root, d.ID, true); got != 20 {
		t.Fatalf("derived value = %g, want 20", got)
	}
	if got := s.Tree().Root.Incl.Get(d.ID); got != 0 {
		t.Fatalf("derived column leaked into the shared store: %g", got)
	}
}

func TestReplTopDepthLimits(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	execOK(t, s, "expandall", "depth 2")
	rows := s.VisibleRows()
	for _, r := range rows {
		if r.Depth >= 2 {
			t.Fatalf("depth limit ignored: %v at depth %d", r.Node.Label(), r.Depth)
		}
	}
	execOK(t, s, "top 1")
	rows = s.VisibleRows()
	// m has two children; only one shows.
	if len(rows) != 2 {
		t.Fatalf("top limit ignored: %v", rowLabels(rows))
	}
}

func TestReplSortByName(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	execOK(t, s, "expand 0", "sort name")
	got := rowLabels(s.VisibleRows())
	// A->Z at each level: f before g under m.
	if got[1] != "f" || got[2] != "g" {
		t.Fatalf("name sort = %v", got)
	}
}

func TestReplCols(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	out := execOK(t, s, "cols cost")
	if strings.Contains(out, "cost (E)") {
		t.Fatalf("exclusive column still shown:\n%s", out)
	}
	if !strings.Contains(out, "cost (I)") {
		t.Fatalf("inclusive column missing:\n%s", out)
	}
	out = execOK(t, s, "cols cost:excl")
	if !strings.Contains(out, "cost (E)") || strings.Contains(out, "cost (I)") {
		t.Fatalf("cols :excl wrong:\n%s", out)
	}
	out = execOK(t, s, "cols all")
	if !strings.Contains(out, "cost (I)") || !strings.Contains(out, "cost (E)") {
		t.Fatalf("cols all wrong:\n%s", out)
	}
	var b strings.Builder
	if _, err := Exec(s, "cols NOPE", &b); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestReplErrors(t *testing.T) {
	s := newTestSession(core.Fig1Tree(), nil)
	s.VisibleRows()
	bad := []string{
		"bogus",
		"view martian",
		"expand zz",
		"expand 99",
		"hot NOPE",
		"sort NOPE",
		"threshold x",
		"zoom 99",
		"derived novalue",
		"derived bad=((",
		"top -1",
		"depth x",
		"flatten", // not in flat view
		"src",     // nothing selected
	}
	var out strings.Builder
	for _, line := range bad {
		if _, err := Exec(s, line, &out); err == nil {
			t.Errorf("command %q succeeded, want error", line)
		}
	}
}

// TestDerivedOnLazilyExpandedCallers: a session-derived column reads the
// same on Callers View rows whether the rows were expanded before or after
// the column was first materialized. Expansion grows the view's store, so
// an overlay column computed earlier must not go blank on the new rows.
func TestDerivedOnLazilyExpandedCallers(t *testing.T) {
	lastLs := func(lines ...string) string {
		s := newTestSession(core.Fig1Tree(), nil)
		defer s.Close()
		execOK(t, s, lines...)
		return execOK(t, s, "ls")
	}
	late := lastLs("derived ratio=$0/($0+1)", "cols ratio", "view callers", "ls", "expand 1")
	early := lastLs("view callers", "expand 1", "derived ratio=$0/($0+1)", "cols ratio")
	if late != early {
		t.Fatalf("derived column depends on expansion order\n--- derived first ---\n%s\n--- expanded first ---\n%s", late, early)
	}
	lines := strings.Split(strings.TrimSpace(early), "\n")[2:]
	if len(lines) != 7 {
		t.Fatalf("want m, g, g's three callers, f and h:\n%s", early)
	}
	for _, l := range lines {
		if c := l[len(l)-1]; c < '0' || c > '9' {
			t.Fatalf("blank ratio cell in %q:\n%s", l, early)
		}
	}
}
