// Package source is the format-neutral boundary of the ingestion stack:
// everything that can produce a calling context tree — hpcrun measurement
// files fused with a structure document (internal/correlate), Go
// runtime/pprof protos (internal/pprofio), or any future format — is
// expressed as a Profile: a stream of attributed call-path samples plus
// metric descriptors and an optional rank/thread identity.
//
// Build is the single generic consumer: it materializes the scope chains
// of every sample into a core.Tree (creating metric columns by name) and
// accumulates the sample values into the tree's columnar metric store.
// Because node creation order follows the stream exactly, a source that
// emits samples in a deterministic order yields a byte-deterministic
// database — the property the correlate equivalence lock pins.
package source

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/intern"
	"repro/internal/metric"
)

// Metric describes one sample-value column of a profile source.
type Metric struct {
	// Name is the column name, e.g. "CYCLES" or "cpu/nanoseconds".
	Name string
	// Unit is a display unit.
	Unit string
	// Period is the number of events one unit of value accounts for; use
	// 1 when values are already in final units (pprof).
	Period uint64
}

// Identity names the thread of execution a profile measured. The zero
// Identity (rank 0, thread 0) is correct for single-process sources.
type Identity struct {
	Rank   int
	Thread int
}

// Scope is one element of a sample's attributed call path: the core.Key
// that identifies the scope within its parent plus the presentation
// attributes the scope carries. Attribute fields are applied only when
// set (and call-site fields only once), so revisiting a scope with the
// same attributes — the invariant every deterministic source upholds —
// never changes it.
type Scope struct {
	// Key identifies the scope within its parent (kind, interned
	// name/file symbols, line, disambiguating id).
	Key core.Key
	// NoSource marks scopes with no source information.
	NoSource bool
	// Mod is the load module containing the scope, interned.
	Mod intern.Sym
	// CallLine / CallFile locate the call site of a Frame (or the inlined
	// call of an Alien) in the caller.
	CallLine int
	CallFile intern.Sym
}

// Profile is a format-neutral profile: a deterministic stream of
// attributed call-path samples.
type Profile interface {
	// Program names the measured program.
	Program() string
	// Identity reports which process/thread the profile measured.
	Identity() Identity
	// Metrics describes the sample-value columns, in value order.
	Metrics() []Metric
	// Samples streams every sample: path is the scope chain from the
	// entry frame to the attributed scope (inclusive, outermost first)
	// and values holds one entry per metric. Both slices are only valid
	// during the callback. The stream order must be deterministic — it
	// fixes the tree's node creation order and therefore the database
	// bytes.
	Samples(emit func(path []Scope, values []float64) error) error
}

// Build streams one profile into an existing tree, creating any missing
// metric columns (matched by name) and scopes, and returns the column
// mapping from profile metric index to registry column. Values
// accumulate, so building several profiles into one tree yields their
// summed profile.
func Build(tree *core.Tree, p Profile) ([]int, error) {
	cols, err := Columns(tree.Reg, p.Metrics())
	if err != nil {
		return nil, err
	}
	cur := NewCursor(tree.Root)
	err = p.Samples(func(path []Scope, values []float64) error {
		if len(values) != len(cols) {
			return fmt.Errorf("source: sample has %d values, profile declares %d metrics",
				len(values), len(cols))
		}
		nodes, _ := cur.Descend(path)
		leaf := nodes[len(nodes)-1]
		for i, v := range values {
			if v != 0 {
				leaf.Base.Add(cols[i], v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}

// Columns maps a profile's metrics onto registry columns by name, creating
// the missing ones as raw columns.
func Columns(reg *metric.Registry, ms []Metric) ([]int, error) {
	cols := make([]int, len(ms))
	for i, m := range ms {
		d := reg.ByName(m.Name)
		if d == nil {
			var err error
			if d, err = reg.AddRaw(m.Name, m.Unit, m.Period); err != nil {
				return nil, fmt.Errorf("source: %w", err)
			}
		}
		cols[i] = d.ID
	}
	return cols, nil
}

// Cursor materializes consecutive sample paths under one root. It keeps
// the previous sample's path and the nodes it led through, and descends
// only below the prefix the next path shares with it: a source that walks
// its own tree depth first emits paths that differ in their last few
// scopes. Scopes are compared whole, attributes included, and applying the
// same attributes twice changes nothing, so the tree — scope creation
// order included — is the one a descent from the root per sample builds.
type Cursor struct {
	path  []Scope      // the previous sample's path
	nodes []*core.Node // nodes[0] is the root, nodes[i+1] the scope of path[i]
}

// NewCursor returns a cursor at root.
func NewCursor(root *core.Node) *Cursor {
	return &Cursor{nodes: []*core.Node{root}}
}

// Reset returns the cursor to the root, forgetting the previous path.
func (c *Cursor) Reset() {
	c.path, c.nodes = c.path[:0], c.nodes[:1]
}

// Descend returns the nodes along path — the root, then one per scope —
// creating the missing ones, and the index of the first node the previous
// path did not lead through (len(nodes) when path is a prefix of it). The
// slice is valid until the next call.
func (c *Cursor) Descend(path []Scope) (nodes []*core.Node, fresh int) {
	k := 0
	for k < len(path) && k < len(c.path) && path[k] == c.path[k] {
		k++
	}
	c.path = append(c.path[:k], path[k:]...)
	c.nodes = c.nodes[:k+1]
	n := c.nodes[k]
	for i := k; i < len(path); i++ {
		n = n.Child(path[i].Key, true)
		applyScope(n, &path[i])
		c.nodes = append(c.nodes, n)
	}
	return c.nodes, k + 1
}

// applyScope carries a scope's attributes onto its node. Marks are
// sticky and call-site coordinates are set once: under the deterministic
// same-attributes invariant this equals unconditional assignment, without
// ever un-setting an attribute an earlier sample established.
func applyScope(n *core.Node, s *Scope) {
	if s.NoSource {
		n.NoSource = true
	}
	if s.Mod != 0 {
		n.Mod = s.Mod
	}
	if (s.CallLine != 0 || s.CallFile != 0) && n.CallLine == 0 && n.CallFile == 0 {
		n.CallLine = s.CallLine
		n.CallFile = s.CallFile
	}
}

// BuildTree builds a fresh computed tree from one profile: the
// format-neutral equivalent of correlate.Correlate.
func BuildTree(p Profile) (*core.Tree, error) {
	tree := core.NewTree(p.Program(), metric.NewRegistry())
	if _, err := Build(tree, p); err != nil {
		return nil, err
	}
	tree.ComputeMetrics()
	return tree, nil
}
