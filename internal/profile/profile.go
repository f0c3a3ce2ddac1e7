// Package profile defines the raw call-path profile produced by the
// sampling substrate: a trie of call-site return addresses with per-leaf-PC
// event counts, plus the metric table describing what was sampled. It is
// the moral equivalent of hpcrun's per-thread measurement file; hpcprof's
// stand-in (internal/correlate) later fuses it with static structure.
package profile

import (
	"fmt"
	"slices"
)

// MetricInfo describes one sampled event column.
type MetricInfo struct {
	// Name is the event name, e.g. "CYCLES".
	Name string
	// Unit is a display unit.
	Unit string
	// Period is the sampling period: each sample accounts for Period
	// events.
	Period uint64
}

// Profile is one thread-of-execution's raw call path profile.
type Profile struct {
	// Program is the measured program's name.
	Program string
	// Rank and Thread identify the process and thread.
	Rank   int
	Thread int
	// Fingerprint identifies the measured image (isa.Image.Fingerprint);
	// zero means unknown. Correlation refuses to fuse profiles with a
	// structure document from a different build.
	Fingerprint uint64
	// Metrics describes the sampled events, in column order.
	Metrics []MetricInfo
	// Root is the entry frame (no call site).
	Root  *Node
	slabs slabs   // what Read and Record carve the trie from
	ctx   []*Node // the frames of the call path Record saw last, root first
}

// Node is one dynamic frame: the frame created by the call instruction at
// CallPC (zero for the entry frame). Child frames and sample rows are kept
// as slices in ascending PC order — the order the measurement file and the
// correlation walk need — so lookups are binary searches and the accessors
// hand out the slices themselves.
type Node struct {
	CallPC   uint64
	children []*Node     // ascending CallPC
	samples  []SampleRow // ascending PC
}

// NewProfile creates an empty profile.
func NewProfile(program string, rank, thread int, metrics []MetricInfo) *Profile {
	return &Profile{
		Program: program,
		Rank:    rank,
		Thread:  thread,
		Metrics: append([]MetricInfo(nil), metrics...),
		Root:    &Node{},
	}
}

// Child returns the child frame created by the call at pc, creating it when
// create is true. (The search is written out, here and in AddSample: on
// the sampler's path slices.BinarySearchFunc costs 1.7 times as much.)
func (n *Node) Child(pc uint64, create bool) *Node { return n.child(pc, create, &slabs{}, 0) }

// child and addSample carve what they add from s, chunk elements a slab. Child
// and AddSample have no profile to keep slabs in: chunk 0 carves just their piece.
func (n *Node) child(pc uint64, create bool, s *slabs, chunk int) *Node {
	lo, hi := 0, len(n.children)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); n.children[mid].CallPC < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.children) && n.children[lo].CallPC == pc {
		return n.children[lo]
	}
	if !create {
		return nil
	}
	c := &carve(&s.nodes, 1, chunk)[0]
	c.CallPC = pc
	n.children = insert(&s.kids, n.children, lo, c, chunk)
	return c
}

// Children returns the child frames in ascending call-PC order. The slice
// is the node's own: callers must not modify it.
func (n *Node) Children() []*Node { return n.children }

// NumChildren reports the number of child frames.
func (n *Node) NumChildren() int { return len(n.children) }

// AddSample records count events of metric against the leaf pc within this
// frame.
func (n *Node) AddSample(pc uint64, metric int, nMetrics int, count uint64) {
	n.addSample(pc, metric, nMetrics, count, &slabs{}, 0)
}

func (n *Node) addSample(pc uint64, metric int, nMetrics int, count uint64, s *slabs, chunk int) {
	lo, hi := 0, len(n.samples)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); n.samples[mid].PC < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(n.samples) || n.samples[lo].PC != pc {
		n.samples = slices.Insert(n.samples, lo, SampleRow{PC: pc, Counts: carve(&s.counts, nMetrics, chunk)})
	}
	n.samples[lo].Counts[metric] += count
}

// Samples returns the frame's (leaf PC, counts) rows in ascending PC
// order. The slice and the count slices are the node's own: callers must
// not modify them.
func (n *Node) Samples() []SampleRow { return n.samples }

// SampleRow is one leaf PC's event counts within a frame.
type SampleRow struct {
	PC     uint64
	Counts []uint64
}

// Record attributes count events of the given metric to the context
// (callPath, leafPC): callPath holds the call instruction addresses from
// outermost to innermost. Only frames below the prefix shared with the
// previous call (p.ctx; frames never move) are looked up.
func (p *Profile) Record(callPath []uint64, leafPC uint64, metric int, count uint64) {
	if len(p.ctx) == 0 || p.ctx[0] != p.Root {
		p.ctx = insert(&p.slabs.kids, p.ctx[:0], 0, p.Root, slabChunk)
	}
	d := 0
	for d < len(callPath) && d+1 < len(p.ctx) && callPath[d] == p.ctx[d+1].CallPC {
		d++
	}
	p.ctx = p.ctx[:d+1]
	n := p.ctx[d]
	for _, pc := range callPath[d:] {
		n = n.child(pc, true, &p.slabs, slabChunk)
		p.ctx = insert(&p.slabs.kids, p.ctx, len(p.ctx), n, slabChunk)
	}
	n.addSample(leafPC, metric, len(p.Metrics), count, &p.slabs, slabChunk)
}

// MetricIndex returns the column of the named metric, or -1.
func (p *Profile) MetricIndex(name string) int {
	for i, m := range p.Metrics {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Totals sums every metric over the whole profile.
func (p *Profile) Totals() []uint64 {
	tot := make([]uint64, len(p.Metrics))
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, row := range n.samples {
			for i, c := range row.Counts {
				tot[i] += c
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.Root)
	return tot
}

// Stats summarizes the profile shape.
type Stats struct {
	Frames  int // trie nodes including the root
	Leaves  int // distinct (frame, leaf PC) pairs
	Samples uint64
}

// Stats computes profile shape statistics. Samples counts metric-0 events
// divided by its period (i.e. the number of metric-0 samples).
func (p *Profile) Stats() Stats {
	var st Stats
	var walk func(n *Node)
	walk = func(n *Node) {
		st.Frames++
		st.Leaves += len(n.samples)
		for _, row := range n.samples {
			if len(row.Counts) > 0 && len(p.Metrics) > 0 && p.Metrics[0].Period > 0 {
				st.Samples += row.Counts[0] / p.Metrics[0].Period
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.Root)
	return st
}

// Validate checks invariants: the root has CallPC zero, sample rows have
// one count per metric, and every frame's sample PCs and child call PCs are
// strictly ascending (so neither holds a duplicate).
func (p *Profile) Validate() error {
	if p.Root == nil {
		return fmt.Errorf("profile: nil root")
	}
	if p.Root.CallPC != 0 {
		return fmt.Errorf("profile: root has call PC 0x%x", p.Root.CallPC)
	}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		for i, row := range n.samples {
			if len(row.Counts) != len(p.Metrics) {
				return fmt.Errorf("profile: sample at 0x%x has %d counts, want %d", row.PC, len(row.Counts), len(p.Metrics))
			}
			if i > 0 && n.samples[i-1].PC >= row.PC {
				return fmt.Errorf("profile: sample pc 0x%x out of order after 0x%x", row.PC, n.samples[i-1].PC)
			}
		}
		for i, c := range n.children {
			if i > 0 && n.children[i-1].CallPC >= c.CallPC {
				return fmt.Errorf("profile: child pc 0x%x out of order after 0x%x", c.CallPC, n.children[i-1].CallPC)
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(p.Root)
}
