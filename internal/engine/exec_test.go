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
	checkScript(t, core.Fig1Tree(), "ls", "expand 0", "hot cost", "metrics")
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
	checkScript(t, core.Fig1Tree(), "view flat", "flatten", "flatten", "ls", "unflatten")
}

func TestReplCallersExpand(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "view callers", "ls", "expand 1")
}

func TestReplSortZoomSelectSrc(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "expand 0", "sort cost:excl", "select 1", "zoom 0", "out")
	// The source pane of a frame row shows its call site: under m sorted
	// by exclusive cost, f is row 2.
	s := newTestSession(core.Fig1Tree(), workloads.Toy().Program)
	if out := execOK(t, s, "expand 0", "sort cost:excl", "src 2"); !strings.Contains(out, "file1.c:7") {
		t.Fatalf("source pane wrong:\n%s", out)
	}
}

// TestReplDerived: a session formula is a column like any other, read over
// every row (TestSessionDerivedIsolation keeps it out of the shared store).
func TestReplDerived(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "derived double = $0 * 2", "metrics", "expandall", "sort double")
}

func TestReplTopDepthLimits(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "expandall", "depth 2", "top 1")
}

func TestReplSortByName(t *testing.T) { checkScript(t, core.Fig1Tree(), "expand 0", "sort name") }

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

// TestReplErrors: each malformed command fails, as the model's do, and
// changes nothing listed. The model knows no src; the session fails it
// with nothing selected.
func TestReplErrors(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "bogus", "view martian", "expand zz", "expand 99", "hot NOPE", "sort NOPE",
		"threshold x", "zoom 99", "derived novalue", "derived bad=((", "top -1", "depth x", "flatten", "src")
}

// TestDerivedOnLazilyExpandedCallers: a session-derived column reads on
// Callers View rows what the model gives, whether the rows were expanded
// before or after the column was first read. Expansion grows the view's
// store, so an overlay column computed earlier must not go blank on the
// new rows.
func TestDerivedOnLazilyExpandedCallers(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "derived ratio=$0/($0+1)", "cols ratio", "view callers", "ls", "expand 1")
	checkScript(t, core.Fig1Tree(), "view callers", "expand 1", "derived ratio=$0/($0+1)", "cols ratio")
}
