package core

import (
	"testing"
	"unsafe"

	"repro/internal/metric"
)

// The symbol-interned Key and arena allocator exist to keep the CCT hot
// paths allocation-free; these tests pin that down so a regression fails
// loudly instead of showing up as a slow profile load months later.

func TestChildHitAllocsLinear(t *testing.T) {
	tree := NewTree("t", metric.NewRegistry())
	k := Key{Kind: KindFrame, Name: Sym("f"), File: Sym("f.c"), Line: 1}
	tree.Root.Child(k, true)
	if len(tree.Root.Children) > childIndexThreshold {
		t.Fatalf("test wants the linear-scan regime")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if tree.Root.Child(k, false) == nil {
			t.Fatal("lost child")
		}
	}); n != 0 {
		t.Errorf("Child hit (linear scan) allocates %v/op, want 0", n)
	}
}

func TestChildHitAllocsIndexed(t *testing.T) {
	tree := NewTree("t", metric.NewRegistry())
	var k Key
	for i := 0; i < 4*childIndexThreshold; i++ {
		k = Key{Kind: KindStmt, File: Sym("a.c"), Line: i + 1}
		tree.Root.Child(k, true)
	}
	if tree.Root.index == nil {
		t.Fatalf("test wants the indexed regime")
	}
	if n := testing.AllocsPerRun(1000, func() {
		if tree.Root.Child(k, false) == nil {
			t.Fatal("lost child")
		}
	}); n != 0 {
		t.Errorf("Child hit (indexed) allocates %v/op, want 0", n)
	}
}

func TestChildCreateAmortizedAllocs(t *testing.T) {
	tree := NewTree("t", metric.NewRegistry())
	file := Sym("a.c")
	line := 0
	// Every run creates a fresh node: slab, Children and index-map growth
	// all amortize to well under one allocation per node.
	n := testing.AllocsPerRun(4096, func() {
		line++
		tree.Root.Child(Key{Kind: KindStmt, File: file, Line: line}, true)
	})
	if n >= 1 {
		t.Errorf("Child create allocates %v/op amortized, want < 1", n)
	}
}

// TestLazyChildIndex fills one scope through Child, which indexes it on
// the way, and one through AppendChild and GrowChildren as a decoder does,
// which leaves it unindexed until something looks a child up — and asks
// both the same questions: hits, misses, create of an existing key (must
// return it, not a duplicate) and create of a new one.
func TestLazyChildIndex(t *testing.T) {
	key := func(line int) Key { return Key{Kind: KindStmt, File: Sym("a.c"), Line: line} }
	for _, width := range []int{childIndexThreshold, childIndexThreshold + 1, 4 * childIndexThreshold} {
		eager := NewTree("eager", metric.NewRegistry())
		lazy := NewTree("lazy", metric.NewRegistry())
		lazy.Reserve(width)
		lazy.Root.GrowChildren(width)
		for i := 1; i <= width; i++ {
			eager.Root.Child(key(i), true)
			lazy.Root.AppendChild(key(i))
		}
		if lazy.Root.index != nil {
			t.Fatalf("width %d: AppendChild indexed the scope", width)
		}
		at := func(n, c *Node) int {
			for i, x := range n.Children {
				if x == c {
					return i
				}
			}
			return -1
		}
		ask := func(line int, create bool) {
			t.Helper()
			e, l := eager.Root.Child(key(line), create), lazy.Root.Child(key(line), create)
			if (e == nil) != (l == nil) || at(eager.Root, e) != at(lazy.Root, l) || e != nil && e.Key != l.Key {
				t.Fatalf("width %d: Child(line %d, %v) is child %d eagerly indexed, child %d lazily", width, line, create, at(eager.Root, e), at(lazy.Root, l))
			}
		}
		ask(width+5, false) // the first lookup of the lazy scope is a miss
		if wide := width > childIndexThreshold; (lazy.Root.index != nil) != wide || (eager.Root.index != nil) != wide {
			t.Fatalf("width %d: indexed lazily %v, eagerly %v", width, lazy.Root.index != nil, eager.Root.index != nil)
		}
		for i := 1; i <= width; i++ {
			ask(i, false)
			ask(i, true)
		}
		ask(width+5, true)
		ask(width+5, false)
		if len(lazy.Root.Children) != width+1 || len(eager.Root.Children) != width+1 {
			t.Fatalf("width %d: %d children lazily, %d eagerly, want %d", width, len(lazy.Root.Children), len(eager.Root.Children), width+1)
		}
	}
}

// TestGrowChildrenKeepsNeighboursApart carves two sibling lists from the
// slab Reserve set aside and then outgrows the first: the extra child must
// land in a reallocated list, not in the second scope's slots.
func TestGrowChildrenKeepsNeighboursApart(t *testing.T) {
	tree := NewTree("t", metric.NewRegistry())
	tree.Reserve(6)
	tree.Root.GrowChildren(2)
	a := tree.Root.AppendChild(Key{Kind: KindFrame, Name: Sym("a")})
	b := tree.Root.AppendChild(Key{Kind: KindFrame, Name: Sym("b")})
	a.GrowChildren(2)
	b.GrowChildren(2)
	for line := 1; line <= 2; line++ {
		a.AppendChild(Key{Kind: KindStmt, Line: line})
		b.AppendChild(Key{Kind: KindStmt, Line: 10 + line})
	}
	a.AppendChild(Key{Kind: KindStmt, Line: 3})
	if len(a.Children) != 3 || len(b.Children) != 2 || b.Children[0].Line != 11 || b.Children[1].Line != 12 {
		t.Fatalf("outgrowing a's list disturbed b's: a has %d children, b has %v", len(a.Children), b.Children)
	}
}

// TestNodeSize pins the bytes a resident scope costs: a 32-byte key, the
// attributes, the tree links and three 16-byte metric views.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 160 {
		t.Errorf("core.Node is %d bytes, want at most 160", got)
	}
}

// TestForeignScopesPanic: every scope under a tree is a row of the tree's
// store because nothing else can be built, and the one check of that
// (buildTopo) turns a scope spliced in around Child into a panic instead of
// a wrong sum.
func TestForeignScopesPanic(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	k := Key{Kind: KindStmt, File: Sym("a.c"), Line: 1}
	mustPanic("Child of a bare Node", func() { (&Node{}).Child(k, true) })

	tree, other := Fig1Tree(), Fig1Tree()
	f := tree.FindFirst("f")
	for what, foreign := range map[string]*Node{
		"a bare Node":               {Key: k, Parent: f},
		"a scope of another tree":   other.FindFirst("g"),
		"a scope of a derived view": BuildFlatView(other).Roots[0],
	} {
		f.Children = append(f.Children, foreign)
		mustPanic("ComputeMetrics over "+what, tree.ComputeMetrics)
		f.Children = f.Children[:len(f.Children)-1]
	}
	tree.ComputeMetrics() // the tree itself is unharmed
	if got := tree.Total(0); got != Fig1Tree().Total(0) {
		t.Errorf("total %v after the foreign scopes were removed again", got)
	}
}
