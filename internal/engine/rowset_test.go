package engine

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
	"repro/internal/render"
)

// pollCounter counts how often the Callers View's expansion pool asks the
// session context whether to go on: once per root it expands, and once
// more per worker at the end of a pass.
type pollCounter struct {
	context.Context
	polls atomic.Int64
}

func (c *pollCounter) Err() error {
	c.polls.Add(1)
	return c.Context.Err()
}

// wideTree is a CCT whose main calls procedures p0..p(n-1), each with one
// statement: a Callers View of n+1 roots.
func wideTree(tb testing.TB, n int) *core.Tree {
	tb.Helper()
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("M0", "u", 1); err != nil {
		tb.Fatal(err)
	}
	t := core.NewTree("wide", reg)
	main := t.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("main.c")}, true)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		fr := main.Child(core.Key{Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym(name + ".c")}, true)
		fr.CallLine = i + 1
		fr.Child(core.Key{Kind: core.KindStmt, File: fr.File, Line: 1}, true).Base.Add(0, float64(i%7+1))
	}
	t.ComputeMetrics()
	return t
}

// TestExpandAllCallersLinearInRoots pins `expandall` on the Callers View to
// one pass of the expansion pool, not one per visible root: the pool's
// polls of the session context grow with the roots, not with their square.
func TestExpandAllCallersLinearInRoots(t *testing.T) {
	polls := func(roots int) int64 {
		s := newTestSession(wideTree(t, roots), nil)
		defer s.Close()
		s.SwitchView(ViewCallers)
		c := &pollCounter{Context: s.ctx}
		s.ctx = c
		if _, err := Exec(s, "expandall", io.Discard); err != nil {
			t.Fatal(err)
		}
		// Every procedure root shows its one caller, main.
		if rows := len(s.VisibleRows()); rows != 2*roots+1 {
			t.Fatalf("%d roots: expandall shows %d rows, want %d", roots, rows, 2*roots+1)
		}
		return c.polls.Load()
	}
	small, large := polls(500), polls(2000)
	if large >= 4*small {
		t.Fatalf("expandall polled the pool %d times for 500 roots and %d for 2 000: more than linear", small, large)
	}
}

// TestCallersRootsKeepTheirOwnRows checks that expansion is kept per store:
// the Callers View's roots are rows of one store and every root's subtrie
// owns a store, so a subtrie's row 0, its row 1 and so on are also another
// subtrie's. Opening a root must not open another, and opening a row under
// one root must not open the row of the same number under another.
func TestCallersRootsKeepTheirOwnRows(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("M0", "u", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("pair", reg)
	main := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main")}, true)
	// main → f → x and main → g → w: the roots x and w each have one
	// caller chain of two rows (f or g at row 1, main at row 2).
	for i, pair := range [][2]string{{"f", "x"}, {"g", "w"}} {
		mid := main.Child(core.Key{Kind: core.KindFrame, Name: core.Sym(pair[0])}, true)
		leaf := mid.Child(core.Key{Kind: core.KindFrame, Name: core.Sym(pair[1])}, true)
		leaf.Child(core.Key{Kind: core.KindStmt, Line: 1}, true).Base.Add(0, float64(10+i))
	}
	tree.ComputeMetrics()
	s := newTestSession(tree, nil)
	defer s.Close()
	s.SwitchView(ViewCallers)
	s.SetSort(core.SortSpec{ByLabel: true})

	// row finds the one row of the label at the depth.
	row := func(label string, depth int) render.Row {
		t.Helper()
		var found []render.Row
		for _, r := range s.VisibleRows() {
			if r.Node.Label() == label && r.Depth == depth {
				found = append(found, r)
			}
		}
		if len(found) != 1 {
			t.Fatalf("%d rows labelled %q in %v", len(found), label, rowLabels(s.VisibleRows()))
		}
		return found[0]
	}
	w, x := row("w", 0).Node, row("x", 0).Node
	if w.Incl.Store() != x.Incl.Store() || w.Incl.Row() == x.Incl.Row() {
		t.Fatal("fixture: roots w and x should be two rows of one store")
	}
	// Open w once so its subtrie exists, then close it: only x is open.
	s.Expand(w)
	s.Collapse(w)
	s.Expand(x)
	if got := rowLabels(s.VisibleRows()); strings.Join(got, " ") != "f g main w x f" {
		t.Fatalf("opening root x opened root w too: %v", got)
	}
	s.Expand(w)
	f := row("f", 1).Node
	s.Expand(f)
	if g := row("g", 1); !g.HasHidden || g.Node.Incl.Row() != f.Incl.Row() || g.Node.Incl.Store() == f.Incl.Store() {
		t.Fatalf("opening f (row %d under x) opened g (row %d under w): %v", f.Incl.Row(), g.Node.Incl.Row(), rowLabels(s.VisibleRows()))
	}
	if got := rowLabels(s.VisibleRows()); strings.Join(got, " ") != "f g main w g x f main" {
		t.Fatalf("rows %v", got)
	}
}

// TestExpansionMatchesMapModel drives sessions through random scripts of
// the commands that open, close and reset scopes, over all three views and
// in and out of a diff, and checks after every command that the session
// shows the rows of a model keeping the open scopes in a map.
func TestExpansionMatchesMapModel(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		tree := bushyTree(t, 300, seed)
		s := newTestSession(tree, nil)
		s.SetCatalog(SnapshotCatalog{"other": NewSnapshot(expdb.New(bushyTree(t, 300, seed+100)))})
		model := map[*core.Node]bool{}
		open := func(n *core.Node) {
			core.Walk(n, func(x *core.Node) bool {
				model[x] = true
				return true
			})
		}
		var script []string
		for step := 0; step < 60; step++ {
			rows := append([]render.Row(nil), s.VisibleRows()...)
			arg := func() string { return fmt.Sprint(rng.Intn(len(rows) + 1)) } // one past the end fails
			var line string
			switch k := rng.Intn(20); {
			case k < 5:
				line = "expand " + arg()
			case k < 8:
				line = "collapse " + arg()
			case k < 9:
				line = "expandall"
			case k < 11:
				line = "expandall " + arg()
			case k < 12:
				line = "hot M0"
			case k < 13:
				line = []string{"zoom " + arg(), "out"}[rng.Intn(2)]
			case k < 14:
				line = []string{"flatten", "unflatten"}[rng.Intn(2)]
			case k < 17:
				line = "view " + []string{"cc", "callers", "flat"}[rng.Intn(3)]
			case k < 18:
				line = []string{"diff other", "back"}[rng.Intn(2)]
			case k < 19:
				line = []string{"top 3", "top 0", "depth 4", "depth 0"}[rng.Intn(4)]
			default:
				line = []string{"sort M1", "sort M0:excl", "sort name"}[rng.Intn(3)]
			}
			script = append(script, line)
			view, inDiff := s.View(), s.InDiff()
			f := strings.Fields(line)
			var err error
			if f[0] == "hot" {
				for _, n := range s.HotPath(0) {
					model[n] = true
				}
			} else if _, err = Exec(s, line, io.Discard); err == nil {
				var n *core.Node
				if len(f) == 2 && (f[0] == "expand" || f[0] == "collapse" || f[0] == "expandall") {
					var i int
					fmt.Sscan(f[1], &i)
					n = rows[i].Node
				}
				switch {
				case f[0] == "expand":
					model[n] = true
				case f[0] == "collapse":
					delete(model, n)
				case f[0] == "expandall" && n != nil:
					open(n)
				case f[0] == "expandall":
					for _, r := range rows {
						open(r.Node)
					}
				case f[0] == "view" && s.View() != view, f[0] == "diff", f[0] == "back" && inDiff:
					model = map[*core.Node]bool{}
				}
			}
			got, want := s.VisibleRows(), naiveRows(s, func(n *core.Node) bool { return model[n] })
			if len(got) != len(want) {
				t.Fatalf("seed %d, after %q (err %v): %d rows, the model has %d\nscript %q", seed, line, err, len(got), len(want), script)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("seed %d, after %q: row %d is %s, the model's is %s\nscript %q", seed, line, j,
						got[j].Node.Label(), want[j].Node.Label(), script)
				}
			}
		}
		s.Close()
	}
}
