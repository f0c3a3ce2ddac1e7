package engine

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
	"repro/internal/oracle"
	"repro/internal/render"
)

// bushyTree builds a seeded CCT of about the given size whose scopes have
// zero to four children — hundreds of multi-child sibling lists — over
// two raw columns with many equal values, so the label tie-break of the
// sort is exercised too.
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

// TestRowsBeyondCacheCapacity drives one session through expand-all walks
// that sort hundreds of sibling lists, in all three views and at flatten
// levels 0 and 1, then collapses, expands, re-sorts and adds a derived
// column. After every command it must list what the model does, and no
// scope's Children may have left database order — the single-scope lists
// the walk hands out uncopied are the tree's own.
func TestRowsBeyondCacheCapacity(t *testing.T) {
	tree := bushyTree(t, 6000, 3)
	if lists := multiChildLists(tree); lists < 800 {
		t.Fatalf("fixture has %d multi-child sibling lists, want at least 800", lists)
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
	if _, err := oracle.Check(oracle.NewModel(expdb.New(tree), "", nil), script, surface(s)); err != nil {
		t.Fatal(err)
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
