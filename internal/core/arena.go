package core

import "repro/internal/metric"

// nodeArena allocates Nodes in chunked slabs. A CCT allocates tens of
// thousands of scopes that live and die together with their tree, so
// individual heap objects buy nothing and cost an allocation (plus GC
// bookkeeping) each. Slabs are never reallocated — a full slab is simply
// retired and a fresh one started — so node pointers stay stable for the
// life of the tree.
//
// An arena is single-writer: a tree is built by one goroutine at a time
// (the tree's own construction, one merge reduction step, or one Callers
// View root expansion, which owns a private arena per subtrie). Concurrent
// readers only follow node pointers, never alloc.
type nodeArena struct {
	slab []Node
	// store is the columnar metric store backing this arena's nodes: each
	// alloc claims one dense row and binds the node's Base/Incl/Excl views
	// to it. One store per arena keeps the invariant that slab views never
	// alias across trees (a tree, a callers-view subtrie, a flat view each
	// own a private store, so parallel builders never share slabs).
	store *metric.Store
	// kids is the child-pointer slab Tree.Reserve sets aside; GrowChildren
	// carves exact-capacity Children slices from it, so a later append to
	// one of them reallocates instead of running into its neighbour.
	kids []*Node
}

// Slab capacities double from arenaMinChunk to arenaMaxChunk: a toy tree
// (a merge shard, one Callers View root) pays for a handful of nodes, while
// a production CCT quickly reaches full-size slabs that amortize allocation
// to noise.
const (
	arenaMinChunk = 8
	arenaMaxChunk = 512
)

// alloc returns a pointer to a zeroed Node inside the current slab,
// starting a new slab when full.
func (a *nodeArena) alloc() *Node {
	if len(a.slab) == cap(a.slab) {
		c := 2 * cap(a.slab)
		if c < arenaMinChunk {
			c = arenaMinChunk
		}
		if c > arenaMaxChunk {
			c = arenaMaxChunk
		}
		a.slab = make([]Node, 0, c)
	}
	a.slab = a.slab[:len(a.slab)+1]
	n := &a.slab[len(a.slab)-1]
	row := a.store.AddRow()
	n.Base = metric.NewView(a.store, metric.PlaneBase, row)
	n.Incl = metric.NewView(a.store, metric.PlaneIncl, row)
	n.Excl = metric.NewView(a.store, metric.PlaneExcl, row)
	return n
}
