package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
)

// TestFigure2 feeds the rules Figure 1's program as run in Figure 2a and
// finds every (inclusive, exclusive) pair the figure prints, the 36 that
// internal/core's Figure 2 tests check of the views. A path names rows by
// procedure, file or callee, and loops as L and their line.
func TestFigure2(t *testing.T) {
	tree := core.Fig1Tree()
	views := map[string]*oracle.View{"a": oracle.CCT(tree), "b": oracle.Callers(tree), "c": oracle.Flat(tree)}
	for _, c := range []struct {
		path       string
		incl, excl float64
	}{
		{"a /m", 10, 0}, {"a /m/f", 7, 1}, {"a /m/f/g", 6, 1}, {"a /m/f/g/g", 5, 1},
		{"a /m/g", 3, 3}, {"a /m/f/g/g/h", 4, 4}, {"a /m/f/g/g/h/L8", 4, 0}, {"a /m/f/g/g/h/L8/L9", 4, 4},
		{"b g", 9, 4}, {"b f", 7, 1}, {"b h", 4, 4}, {"b m", 10, 0},
		{"b g/g", 5, 1}, {"b g/f", 6, 1}, {"b g/m", 3, 3}, {"b g/g/f", 5, 1}, {"b g/g/f/m", 5, 1},
		{"b g/f/m", 6, 1}, {"b f/m", 7, 1},
		{"b h/g", 4, 4}, {"b h/g/g", 4, 4}, {"b h/g/g/f", 4, 4}, {"b h/g/g/f/m", 4, 4},
		{"c toy.exe/file2.c", 9, 8}, {"c toy.exe/file1.c", 10, 1},
		{"c toy.exe/file2.c/g", 9, 4}, {"c toy.exe/file2.c/h", 4, 4},
		{"c toy.exe/file2.c/g/g", 5, 1}, {"c toy.exe/file2.c/g/h", 4, 0},
		{"c toy.exe/file2.c/h/L8", 4, 0}, {"c toy.exe/file2.c/h/L8/L9", 4, 4},
		{"c toy.exe/file1.c/m", 10, 0}, {"c toy.exe/file1.c/f", 7, 1},
		{"c toy.exe/file1.c/m/f", 7, 1}, {"c toy.exe/file1.c/m/g", 3, 3}, {"c toy.exe/file1.c/f/g", 6, 1},
	} {
		view, path, _ := strings.Cut(c.path, " ")
		rows := views[view].Roots
		var r *oracle.Row
		for _, step := range strings.Split(path, "/") {
			r = nil
			for _, x := range rows {
				if x.Name.String() == step || x.Kind == core.KindLoop && step == fmt.Sprint("L", x.Line) {
					r = x
				}
			}
			if r == nil {
				t.Fatalf("Figure 2%s: no row %q", view, c.path)
			}
			rows = r.Children
		}
		if r.Incl[0] != c.incl || r.Excl[0] != c.excl {
			t.Errorf("Figure 2%s: %s = (%g, %g), want (%g, %g)", view, path, r.Incl[0], r.Excl[0], c.incl, c.excl)
		}
	}
}
