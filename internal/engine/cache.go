package engine

import (
	"container/list"

	"repro/internal/core"
)

// queryCache memoizes the expensive per-interaction query results — sorted
// sibling orders and hot paths — in one bounded LRU owned by a session.
// Re-rendering after an expand, collapse or selection re-sorts every
// visible sibling list from scratch without it; with it, only lists never
// ordered under the current (view, spec) pay the sort.
//
// Every key carries a generation stamp. Anything that can change metric
// values or sibling-list membership — derived-metric registration, lazy
// caller materialization, view switches, column fault-in (the session's
// own, or another session's observed through the snapshot generation) —
// bumps the generation, so stale entries can never be returned; they age
// out of the LRU instead of being scanned for.
const cacheCapacity = 256

// cacheKey identifies one memoized query: a sorted sibling list — owned by
// a parent scope (nil for a view's top-level forest, which flattening can
// re-shape — hence the flatten level) under a sort spec — or, with hot
// set, one hot-path query (Equation 3 is deterministic in its start scope,
// column and threshold). One comparable struct for both, so the index
// hashes it in place instead of boxing it into an interface.
type cacheKey struct {
	hot       bool
	view      ViewKind
	node      *core.Node // parent scope, or the hot path's start
	flatten   int
	spec      core.SortSpec // the hot path's column is spec.MetricID
	threshold float64
	gen       uint64
}

type cacheEntry struct {
	key  cacheKey
	rows []*core.Node
}

type queryCache struct {
	gen uint64
	lru *list.List // *cacheEntry; front = most recently used
	idx map[cacheKey]*list.Element
	// passLists counts the sibling lists the row walk in progress has
	// asked the cache about, and scratch holds the orders of the lists
	// beyond cacheCapacity, which it does not ask about.
	passLists int
	scratch   []*core.Node
}

func newQueryCache() *queryCache {
	return &queryCache{lru: list.New(), idx: map[cacheKey]*list.Element{}}
}

// bump invalidates every existing entry.
func (c *queryCache) bump() { c.gen++ }

func (c *queryCache) get(key cacheKey) ([]*core.Node, bool) {
	el, ok := c.idx[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).rows, true
}

func (c *queryCache) put(key cacheKey, rows []*core.Node) {
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).rows = rows
		c.lru.MoveToFront(el)
		return
	}
	c.idx[key] = c.lru.PushFront(&cacheEntry{key: key, rows: rows})
	for c.lru.Len() > cacheCapacity {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.idx, el.Value.(*cacheEntry).key)
	}
}

// beginPass starts one walk over the visible rows.
func (c *queryCache) beginPass() { c.passLists, c.scratch = 0, c.scratch[:0] }

// sortedSiblings returns ns ordered by the session sort. Callers may
// re-slice the result but must not reorder it, and must not keep it past
// the row walk that asked for it. Runs under the snapshot read lock.
//
// A list of at most one scope has one order: it is returned as it is, with
// no copy, sort or cache entry (most scopes of a CCT have a single child).
// The first cacheCapacity longer lists of a walk are memoized per (view,
// parent, spec). A walk that visits more would evict its own entries before
// the next walk reaches them, every walk anew, so the lists beyond are
// sorted into a scratch buffer the next walk overwrites, and the cache
// keeps the orders at the top of the view.
func (s *Session) sortedSiblings(parent *core.Node, ns []*core.Node) []*core.Node {
	if len(ns) < 2 {
		return ns
	}
	c := s.cache
	var sorted []*core.Node
	if c.passLists < cacheCapacity {
		c.passLists++
		key := cacheKey{view: s.view, node: parent, flatten: s.flatten, spec: s.sort, gen: c.gen}
		if rows, ok := c.get(key); ok {
			return rows
		}
		sorted = append([]*core.Node(nil), ns...)
		c.put(key, sorted)
	} else {
		// Earlier orders of this walk stay valid in the old array when the
		// append moves the buffer.
		start := len(c.scratch)
		c.scratch = append(c.scratch, ns...)
		sorted = c.scratch[start:len(c.scratch):len(c.scratch)]
	}
	if s.sort.ByLabel || s.sort.MetricID < s.snap.baseCols {
		core.SortScopes(sorted, s.sort)
	} else {
		// Overlay (session-private) sort column: same comparator, with the
		// keys read from the overlay slab of the list's store, resolved once
		// per list as SortScopes resolves a resident column. A scope of
		// another store (the Callers View's top level) reads its own.
		inclusive := !s.sort.Exclusive
		id := s.sort.MetricID
		st := sorted[0].Incl.Store()
		slab := s.overlaySlab(st, id, inclusive)
		core.SortScopesFunc(sorted, s.sort, func(n *core.Node) float64 {
			if n.Incl.Store() != st {
				return s.cellValue(n, id, inclusive)
			}
			if r := int(n.Incl.Row()); r < len(slab) {
				return slab[r]
			}
			return 0
		})
	}
	return sorted
}

// hotPathCached returns the memoized Equation 3 result for (start, metric)
// at the current threshold. Runs under the snapshot read lock.
func (s *Session) hotPathCached(start *core.Node, metricID int) []*core.Node {
	key := cacheKey{hot: true, node: start, spec: core.SortSpec{MetricID: metricID}, threshold: s.threshold, gen: s.cache.gen}
	if path, ok := s.cache.get(key); ok {
		return path
	}
	var path []*core.Node
	if metricID < s.snap.baseCols {
		path = core.HotPath(start, metricID, s.threshold)
	} else {
		path = core.HotPathFunc(start, func(n *core.Node) float64 {
			return s.cellValue(n, metricID, true)
		}, s.threshold)
	}
	s.cache.put(key, path)
	return path
}
