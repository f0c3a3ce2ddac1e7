// Package core implements the paper's primary contribution: the canonical
// calling context tree with static structure fused in, hybrid
// inclusive/exclusive metric attribution (Section IV, Equations 1 and 2),
// recursion-aware aggregation via exposed instances (Section IV-B), and the
// three complementary views — Calling Context, Callers and Flat (Section
// III) — plus hot path analysis (Section V-C, Equation 3) and flattening
// (Section III-C).
package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/metric"
)

// Kind classifies scopes. The first group appears in the Calling Context
// View; the second group appears only in derived views.
type Kind uint8

const (
	// KindRoot is the invisible root of a tree.
	KindRoot Kind = iota
	// KindFrame is a dynamic scope: the fusion of a call site and its
	// callee on one line, as hpcviewer presents them (Section V-B). The
	// entry frame (main) has no call site.
	KindFrame
	// KindLoop is a recovered loop.
	KindLoop
	// KindAlien is inlined code.
	KindAlien
	// KindStmt is a statement; samples initially land here.
	KindStmt

	// KindLM is a load module (Flat View only).
	KindLM
	// KindFile is a source file (Flat View only).
	KindFile
	// KindProc is an aggregated procedure: a Flat View procedure row or
	// a Callers View row (the root row of a procedure, or one of its
	// transitive callers).
	KindProc
	// KindCallSite is a Flat View dynamic row: a call site aggregated
	// within its static context (the paper's hy/gz/... nodes in Figure
	// 2c).
	KindCallSite
)

func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindFrame:
		return "frame"
	case KindLoop:
		return "loop"
	case KindAlien:
		return "alien"
	case KindStmt:
		return "stmt"
	case KindLM:
		return "module"
	case KindFile:
		return "file"
	case KindProc:
		return "proc"
	case KindCallSite:
		return "callsite"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Sym interns a string into the process-wide symbol table. It is the
// constructor for the Name/File fields of Key (and the Mod/CallFile fields
// of Node); the zero Sym is the empty string.
func Sym(s string) intern.Sym { return intern.S(s) }

// Key identifies a child scope within its parent. Two samples fuse into the
// same scope exactly when their keys match at every level.
//
// The key is a fixed-size comparable struct of integers: names and files
// are interned symbols (intern.Sym), so map hashing and equality never
// touch string bytes — the dominant cost of CCT construction before
// interning. Strings are resolved back only at the presentation edge
// (Label, serialization).
type Key struct {
	Kind Kind
	// Name is the procedure name (Frame, Alien, Proc, CallSite), module
	// name (LM) or file name (File), interned.
	Name intern.Sym
	// File is the source file of the scope (callee's file for frames),
	// interned.
	File intern.Sym
	// Line is the statement line, call-site line, loop header line, or
	// procedure declaration line.
	Line int
	// ID disambiguates scopes beyond source position: the call
	// instruction address for frames, the loop header address for loops,
	// the inline-site address for aliens. Zero for hand-built trees.
	ID uint64
}

// Node is one scope in a tree (CCT or derived view).
type Node struct {
	Key
	// NoSource marks scopes with no source information (rendered
	// "plain black" per Section III-D.2).
	NoSource bool
	// below marks a lazily built Flat View's procedure row with rows below.
	below bool
	// Mod is the load module containing the scope (used by the Flat
	// View's top level); set on frames during correlation. Interned.
	Mod intern.Sym
	// CallLine is the call-site line for Frame scopes (the caller-side
	// line), and the inlined call line for Alien scopes.
	CallLine int
	// CallFile is the file containing that call site. Interned.
	CallFile intern.Sym

	Parent   *Node
	Children []*Node
	// index accelerates Child lookups once fan-out exceeds
	// childIndexThreshold; below that, the Children slice is scanned
	// directly (most CCT scopes have a handful of children, and a map
	// per scope was a large share of tree-construction allocations).
	// It is built by the first lookup that finds the scope that wide, so
	// a decoded tree nobody looks children up in never pays for one.
	index map[Key]*Node

	// arena is the node allocator of the tree or view the scope belongs
	// to; its children are allocated from the same arena. A Callers View
	// root row's is its subtrie's, set when that is built. Nil only for a
	// bare Node, which can be compared against but never grown.
	arena *nodeArena

	// labelSym caches the interned Label() so repeated sort tie-breaks
	// resolve a symbol instead of re-formatting the label. Zero means
	// unset (labels are never empty); accessed atomically because sibling
	// lists may be sorted by concurrent readers.
	labelSym uint32

	// Base holds directly attributed costs: sample counts at statements
	// (and barrier samples at dynamic scopes). Views and Equations 1/2
	// are computed from Base. The three vectors are views into the
	// columnar metric store of the scope's arena, indexed by the scope's
	// dense row id.
	Base metric.View
	// Excl is the presented exclusive cost (Equation 1 / view rules).
	Excl metric.View
	// Incl is the presented inclusive cost (Equation 2).
	Incl metric.View
}

// childIndexThreshold is the fan-out at which a scope switches from linear
// child scans to a map index. Keys are 32-byte integer structs, so scanning
// a short slice beats hashing; profiles show the crossover near a dozen.
const childIndexThreshold = 8

// Child returns the child with the given key, creating it when create is
// true. It is a builder-side call whatever create says — the lookup may
// index n on the way — so it needs n to itself, like every other write to
// a tree.
func (n *Node) Child(k Key, create bool) *Node {
	if n.index == nil && len(n.Children) > childIndexThreshold {
		n.index = make(map[Key]*Node, 2*len(n.Children))
		for _, ch := range n.Children {
			n.index[ch.Key] = ch
		}
	}
	if n.index != nil {
		if c, ok := n.index[k]; ok {
			return c
		}
	} else {
		for _, c := range n.Children {
			if c.Key == k {
				return c
			}
		}
	}
	if !create {
		return nil
	}
	c := n.AppendChild(k)
	if n.index != nil {
		n.index[k] = c
	}
	return c
}

// HasRowsBelow reports whether any row lies below n: a child, or a row of
// a lazily built Flat View that FlatView.Complete has not made yet.
func (n *Node) HasRowsBelow() bool { return len(n.Children) > 0 || n.below }

// AppendChild attaches a new child with the given key without asking
// whether n already has one: for decoders that read whole sibling lists
// and answer for key uniqueness themselves. The child is not indexed
// either; the next Child call on n sees to that.
func (n *Node) AppendChild(k Key) *Node {
	if n.arena == nil {
		panic("core: child of a scope that belongs to no tree; start from NewTree")
	}
	c := n.arena.alloc()
	c.Key = k
	c.Parent = n
	c.arena = n.arena
	n.Children = append(n.Children, c)
	return c
}

// GrowChildren makes room for exactly c more children, so a decoder that
// has just read a child count appends them without regrowth or slack. After
// Tree.Reserve the room is carved from the arena's one child-pointer slab
// instead of allocated per scope.
func (n *Node) GrowChildren(c int) {
	if c <= cap(n.Children)-len(n.Children) {
		return
	}
	if a := n.arena; len(n.Children) == 0 && c <= cap(a.kids)-len(a.kids) {
		at := len(a.kids)
		a.kids = a.kids[:at+c]
		n.Children = a.kids[at : at : at+c]
		return
	}
	n.Children = append(make([]*Node, 0, len(n.Children)+c), n.Children...)
}

// EnclosingFrame returns the nearest ancestor (or self) that is a Frame,
// nil when none exists.
func (n *Node) EnclosingFrame() *Node {
	for x := n; x != nil; x = x.Parent {
		if x.Kind == KindFrame {
			return x
		}
	}
	return nil
}

// Path returns the scopes from the root (exclusive) to n (inclusive).
func (n *Node) Path() []*Node {
	var path []*Node
	for x := n; x != nil && x.Kind != KindRoot; x = x.Parent {
		path = append(path, x)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Label renders the scope the way hpcviewer's navigation pane would:
// procedures by name, loops as "loop at file:line", statements as
// "file:line", call sites with the callee name. This is the presentation
// edge where symbols resolve back to strings.
func (n *Node) Label() string {
	switch n.Kind {
	case KindLoop, KindAlien, KindStmt:
		var buf [64]byte // on the stack: most labels cost the string alone
		return string(n.AppendLabel(buf[:0]))
	}
	return n.constLabel()
}

// AppendLabel appends Label() to b without building the string: the row
// renderer formats every visible line into one reused buffer.
func (n *Node) AppendLabel(b []byte) []byte {
	switch n.Kind {
	case KindLoop:
		b = append(b, "loop at "...)
		b = append(b, baseName(n.File.String())...)
		b = append(b, ": "...)
		return strconv.AppendInt(b, int64(n.Line), 10)
	case KindAlien:
		b = append(b, "inlined "...)
		return append(b, n.Name.String()...)
	case KindStmt:
		b = append(b, baseName(n.File.String())...)
		b = append(b, ": "...)
		return strconv.AppendInt(b, int64(n.Line), 10)
	}
	return append(b, n.constLabel()...)
}

// constLabel is the label of the kinds whose label is an existing string.
func (n *Node) constLabel() string {
	switch n.Kind {
	case KindRoot:
		return "<root>"
	case KindFrame, KindProc, KindCallSite:
		if n.Name == 0 {
			return "<unknown>"
		}
		return n.Name.String()
	case KindLM:
		return n.Name.String()
	case KindFile:
		if n.Name == 0 {
			return "<unknown file>"
		}
		return n.Name.String()
	}
	return "?"
}

func baseName(path string) string {
	if path == "" {
		return "??"
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// labelString returns Label(), interned and cached on the node: the sort
// comparators call it O(n log n) times per sibling list, and formatting
// loop/statement labels allocates. Safe under concurrent sorts of disjoint
// sibling lists (the cache cell is atomic; intern.S is idempotent).
func (n *Node) labelString() string {
	if s := atomic.LoadUint32(&n.labelSym); s != 0 {
		return intern.Sym(s).String()
	}
	l := n.Label()
	atomic.StoreUint32(&n.labelSym, uint32(intern.S(l)))
	return l
}

// Tree is a canonical calling context tree plus its metric registry.
type Tree struct {
	// Program names the measured program.
	Program string
	// Reg is the metric column registry shared by all views of this
	// tree.
	Reg *metric.Registry
	// Root is the invisible root; its children are entry frames.
	Root *Node

	// arena owns every node created under Root via Child/AddPath: nodes
	// live in chunked slabs and die with the tree instead of one heap
	// object each.
	arena nodeArena

	// topo and fl are reused across recomputations so the steady state
	// allocates nothing; only the single writer that mutates the tree
	// touches them.
	topo topoScratch
	fl   []float64
}

// NewTree creates an empty tree with the given registry (a fresh one when
// nil).
func NewTree(program string, reg *metric.Registry) *Tree {
	if reg == nil {
		reg = metric.NewRegistry()
	}
	t := &Tree{Program: program, Reg: reg}
	t.arena.store = reg.NewStore()
	t.Root = t.arena.alloc()
	t.Root.Key = Key{Kind: KindRoot}
	t.Root.arena = &t.arena
	return t
}

// MetricStore returns the tree's columnar metric store: one slab per metric
// column per plane, indexed by dense node row (Node.Base.Row()). Every
// scope under Root is a row of it.
func (t *Tree) MetricStore() *metric.Store { return t.arena.store }

// Reserve makes room for n more scopes in one slab of the tree's arena,
// and for as many child pointers (every scope is one scope's child): a
// decoder that knows the scope count up front skips the chunk-by-chunk
// growth and the per-scope Children allocations.
func (t *Tree) Reserve(n int) {
	if n > cap(t.arena.slab)-len(t.arena.slab) {
		t.arena.slab = make([]Node, 0, n)
	}
	if n > cap(t.arena.kids)-len(t.arena.kids) {
		t.arena.kids = make([]*Node, 0, n)
	}
}

// AddPath materializes (or finds) the scope chain keys under the root and
// returns the final node. Intended for tests and tree builders; a tree grown
// after its constructor returned must call ComputeMetrics before a view is
// built from it.
func (t *Tree) AddPath(keys ...Key) *Node {
	n := t.Root
	for _, k := range keys {
		n = n.Child(k, true)
	}
	return n
}

// Walk visits every node under (and including) start in depth-first
// preorder. Returning false from f prunes the subtree.
func Walk(start *Node, f func(n *Node) bool) {
	if !f(start) {
		return
	}
	for _, c := range start.Children {
		Walk(c, f)
	}
}

// NumNodes counts the scopes in the tree, excluding the root: every scope
// under Root is a row of the tree's store, and the root is one more.
func (t *Tree) NumNodes() int { return t.arena.store.NumRows() - 1 }

// Total returns the root's inclusive value of a metric column: the
// denominator for the percent annotations in every view.
func (t *Tree) Total(metricID int) float64 {
	return t.Root.Incl.Get(metricID)
}

// FindPath descends from the root matching each predicate against child
// labels, returning nil if any step fails. Convenient for tests:
// tree.FindPath("main", "loop at a.c: 2", "kernel").
func (t *Tree) FindPath(labels ...string) *Node {
	n := t.Root
	for _, want := range labels {
		var next *Node
		for _, c := range n.Children {
			if c.Label() == want {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		n = next
	}
	return n
}

// FindFirst returns the first node in preorder whose label matches.
func (t *Tree) FindFirst(label string) *Node {
	var found *Node
	Walk(t.Root, func(n *Node) bool {
		if found != nil {
			return false
		}
		if n.Kind != KindRoot && n.Label() == label {
			found = n
			return false
		}
		return true
	})
	return found
}
