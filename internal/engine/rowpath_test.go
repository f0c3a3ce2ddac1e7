package engine

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/render"
)

// bushyTree builds a seeded CCT of about the given size whose scopes have
// zero to four children — far more multi-child sibling lists than
// cacheCapacity — over two raw columns with many equal values, so the
// label tie-break of the sort is exercised too.
func bushyTree(tb testing.TB, scopes int, seed int64) *core.Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg := metric.NewRegistry()
	for _, name := range []string{"M0", "M1"} {
		if _, err := reg.AddRaw(name, "u", 1); err != nil {
			tb.Fatal(err)
		}
	}
	t := core.NewTree("bushy", reg)
	open := []*core.Node{t.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("main.c")}, true)}
	for n := 1; n < scopes; {
		parent := open[rng.Intn(len(open))]
		for k := rng.Intn(4) + 1; k > 0 && n < scopes; k-- {
			name := fmt.Sprintf("p%d", rng.Intn(12))
			fr := parent.Child(core.Key{Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym(name + ".c"), ID: uint64(len(parent.Children))}, true)
			fr.CallLine = rng.Intn(90) + 1
			st := fr.Child(core.Key{Kind: core.KindStmt, File: fr.File, Line: rng.Intn(40) + 1}, true)
			st.Base.Add(0, float64(rng.Intn(5)+1))
			if rng.Intn(3) == 0 {
				st.Base.Add(1, float64(rng.Intn(3)+1))
			}
			open = append(open, fr)
			n += 2
		}
	}
	t.ComputeMetrics()
	return t
}

func multiChildLists(t *core.Tree) int {
	lists := 0
	core.Walk(t.Root, func(n *core.Node) bool {
		if len(n.Children) > 1 {
			lists++
		}
		return true
	})
	return lists
}

// naiveRows is the uncached oracle of VisibleRows: the same walk with
// every sibling list copied and sorted on the spot, descending into the
// scopes expanded reports open.
func naiveRows(s *Session, expanded func(*core.Node) bool) []render.Row {
	var rows []render.Row
	var add func(ns []*core.Node, depth int)
	add = func(ns []*core.Node, depth int) {
		sorted := append([]*core.Node(nil), ns...)
		inclusive, id := !s.sort.Exclusive, s.sort.MetricID
		core.SortScopesFunc(sorted, s.sort, func(n *core.Node) float64 { return s.cellValue(n, id, inclusive) })
		if s.topN > 0 && len(sorted) > s.topN {
			sorted = sorted[:s.topN]
		}
		for _, n := range sorted {
			shown := expanded(n) && (s.maxDepth == 0 || depth+1 < s.maxDepth)
			hidden := len(n.Children) > 0 && !shown
			if s.view == ViewCallers && n.Parent == nil && !s.callers.Expanded(n) {
				hidden = true
			}
			rows = append(rows, render.Row{Node: n, Depth: depth, HasHidden: hidden})
			if shown {
				add(n.Children, depth+1)
			}
		}
	}
	_, roots := s.roots()
	add(roots, 0)
	return rows
}

// TestRowsBeyondCacheCapacity drives one session through expand-all walks
// that visit far more sibling lists than the cache holds, in all three
// views and at flatten levels 0 and 1, then collapses, expands, re-sorts and
// adds a derived column. After every command its rows must be those of the
// uncached walk, its output that of a fresh session given the same
// commands, and no scope's Children may have left database order — the
// single-scope lists the walk hands out uncopied are the tree's own.
func TestRowsBeyondCacheCapacity(t *testing.T) {
	tree := bushyTree(t, 6000, 3)
	if lists := multiChildLists(tree); lists < 3*cacheCapacity {
		t.Fatalf("fixture has %d multi-child sibling lists, want well over cacheCapacity=%d", lists, cacheCapacity)
	}
	var dbOrder []*core.Node
	core.Walk(tree.Root, func(n *core.Node) bool {
		dbOrder = append(dbOrder, n.Children...)
		return true
	})

	script := []string{
		"expandall", "sort M1:excl", "collapse 1", "expand 1", "sort name", "derived r=$0/($1+1)", "sort r", "ls",
		"view callers", "expandall", "sort M0", "collapse 0", "ls", "expand 0",
		"view flat", "expandall", "sort M1", "flatten", "expandall", "collapse 2", "sort r:excl", "unflatten",
		"view cc", "expandall", "collapse 3", "sort M0:excl",
	}
	s := newTestSession(tree, nil)
	defer s.Close()
	for i, line := range script {
		var got bytes.Buffer
		if _, err := Exec(s, line, &got); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		want := naiveRows(s, s.expanded.has)
		rows := s.VisibleRows()
		if len(rows) != len(want) {
			t.Fatalf("after %q: %d rows, the uncached walk has %d", line, len(rows), len(want))
		}
		for j := range rows {
			if rows[j] != want[j] {
				t.Fatalf("after %q: row %d is %s (depth %d), the uncached walk has %s (depth %d)", line, j,
					rows[j].Node.Label(), rows[j].Depth, want[j].Node.Label(), want[j].Depth)
			}
		}

		fresh := newTestSession(tree, nil)
		var out bytes.Buffer
		for _, replay := range script[:i+1] {
			out.Reset()
			if _, err := Exec(fresh, replay, &out); err != nil {
				t.Fatalf("fresh session, %q: %v", replay, err)
			}
		}
		fresh.Close()
		if !bytes.Equal(got.Bytes(), out.Bytes()) {
			t.Fatalf("after %q: output differs from a fresh session's given the same commands", line)
		}
	}

	at := 0
	core.Walk(tree.Root, func(n *core.Node) bool {
		for _, c := range n.Children {
			if dbOrder[at] != c {
				t.Fatalf("children of %s left database order", n.Label())
			}
			at++
		}
		return true
	})
}

// TestRenderAfterExpandAllAllocations pins the steady state of the row
// path: once an expand-all has been rendered, rendering it again allocates
// a handful of objects — the renderer's — and nothing per row, at 2 000
// scopes as at 20 000.
func TestRenderAfterExpandAllAllocations(t *testing.T) {
	for _, scopes := range []int{2000, 20_000} {
		s := newTestSession(bushyTree(t, scopes, 5), nil)
		if _, err := Exec(s, "expandall", io.Discard); err != nil {
			t.Fatal(err)
		}
		if rows := len(s.VisibleRows()); rows < scopes {
			t.Fatalf("expand-all shows %d rows of %d scopes", rows, scopes)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := s.Render(io.Discard, render.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("re-rendering %d expanded scopes allocates %v objects, want a constant handful", scopes, allocs)
		}
		s.Close()
	}
}
