package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/render"
)

// TestBatchShowsTheSessionRows pins the one visibility rule: batch
// hpcviewer prints the rows an engine session shows once the view is
// expanded whole, with the session's limits, in every view of Figure 1
// (whose Callers View has four roots, more than -top cuts to). A batch
// line is the session's numbered line without its row number and
// expander, and a "... (N more)" line follows the rows below the last
// scope shown of each list the top-N cut, as the rows record.
func TestBatchShowsTheSessionRows(t *testing.T) {
	binPath, _ := writeDB(t, t.TempDir())
	cases := []struct {
		flags      []string
		top, depth int
		hot        bool
	}{
		{[]string{"-top", "1"}, 1, 0, false},
		{[]string{"-depth", "2"}, 0, 2, false},
		{[]string{"-top", "2", "-depth", "3"}, 2, 3, false},
		{[]string{"-hotpath", "cost"}, 0, 0, true},
	}
	cuts := 0
	for _, c := range cases {
		for _, view := range []string{"cc", "callers", "flat"} {
			name := strings.Join(append(c.flags, "-view", view), " ")
			batch, err := captureStdout(t, func() error {
				return run(append([]string{"-db", binPath, "-view", view}, c.flags...))
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, n := sessionLines(t, binPath, view, c.top, c.depth, c.hot)
			cuts += n
			got := strings.Split(strings.TrimRight(batch[strings.Index(batch, "scope"):], "\n"), "\n")
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s: batch prints\n%s\nthe session's rows are\n%s", name, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no case cut a sibling list")
	}
}

// sessionLines opens the database in a session, shows the view as batch
// hpcviewer's flags say and returns the header and rows of its numbered
// render, each row without its row number and expander, with the cut
// markers the rows record, and how many markers there are.
func sessionLines(t *testing.T, db, view string, top, depth int, hot bool) ([]string, int) {
	t.Helper()
	snap, err := engine.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	s := engine.NewSession(snap)
	defer s.Close()
	if hot {
		if path := s.HotPath(s.Registry().ByName("cost").ID); depth == 0 {
			depth = len(path) + 1
		}
	}
	s.SwitchView(map[string]engine.ViewKind{"cc": engine.ViewCC, "callers": engine.ViewCallers, "flat": engine.ViewFlat}[view])
	s.SetLimits(top, depth)
	if err := s.ExpandAll(nil); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := s.Render(&b, render.Options{}); err != nil {
		t.Fatal(err)
	}
	numbered := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	rows := s.VisibleRows()
	if len(numbered) != len(rows)+2 {
		t.Fatalf("%d rows, %d numbered lines", len(rows), len(numbered)-2)
	}
	// A marker goes where the rows below its row end: before the next row
	// that is not deeper, the deepest marker first.
	markers := make([][]string, len(rows)+1)
	n := 0
	for i := len(rows) - 1; i >= 0; i-- {
		if rows[i].Cut == 0 {
			continue
		}
		end := i + 1
		for end < len(rows) && rows[end].Depth > rows[i].Depth {
			end++
		}
		line := " " + strings.Repeat("  ", rows[i].Depth) + fmt.Sprintf("... (%d more)", rows[i].Cut)
		markers[end] = append(markers[end], line)
		n++
	}
	lines := numbered[:2]
	for i, row := range rows {
		lines = append(lines, markers[i]...)
		// The label column, 44 characters wide in both styles, holds "%3d ",
		// the mark, the indentation, the expander and the label; the cells
		// follow it.
		l := numbered[i+2]
		scope, cells := l[:min(44, len(l))], l[min(44, len(l)):]
		indent := 5 + 2*row.Depth
		lines = append(lines, strings.TrimRight(fmt.Sprintf("%-44s%s", scope[4:indent]+scope[indent+1:], cells), " "))
	}
	return append(lines, markers[len(rows)]...), n
}
