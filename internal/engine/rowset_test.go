package engine

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
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
	cv := NewSnapshot(expdb.New(tree)).CallersView()
	root := map[string]*core.Node{}
	for _, r := range cv.Roots {
		cv.Expand(r)
		root[r.Label()] = r
	}
	w, x := root["w"], root["x"]
	if f, g := x.Children[0], w.Children[0]; w.Incl.Store() != x.Incl.Store() || w.Incl.Row() == x.Incl.Row() ||
		f.Incl.Store() == g.Incl.Store() || f.Incl.Row() != g.Incl.Row() {
		t.Fatal("fixture: roots w and x should be two rows of one store, f under x and g under w one row id of two stores")
	}
	// Roots f g main w x: open w and close it, so its subtrie exists; open
	// x, then w, then f under x (row 6).
	checkScript(t, tree, "view callers", "sort name", "expand 3", "collapse 3", "expand 4", "expand 3", "expand 6")
}
