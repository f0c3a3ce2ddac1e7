package core

import (
	"slices"
	"strings"

	"repro/internal/metric"
)

// Hot path analysis (Section V-C, Equation 3): starting from a scope x,
// repeatedly descend into the child with the greatest inclusive value of
// the selected metric while that child accounts for at least threshold t of
// the parent's inclusive cost. It applies to any subtree and any metric —
// including derived metrics — and is how Figure 3 finds the
// chemkin_m_reaction_rate_ bottleneck and Figure 7 finds the imbalanced
// time-stepping loop.

// DefaultHotPathThreshold is the t = 50% the paper found most useful.
const DefaultHotPathThreshold = 0.5

// HotPath returns the scopes of H(start) in order, beginning with start
// itself. metricID selects the inclusive metric column; t is the descent
// threshold (DefaultHotPathThreshold when <= 0). The path ends at the first
// scope none of whose children reaches t of its inclusive cost.
func HotPath(start *Node, metricID int, t float64) []*Node {
	if start == nil {
		return nil
	}
	// Hoist the inclusive column slab out of the descent: per-child reads
	// become direct row loads instead of store lookups. ColRead never
	// materializes anything, so concurrent queries over a shared tree stay
	// race-free; nodes from a different store take the slow path.
	st := start.Incl.Store()
	var slab []float64
	if st != nil { // nil only for a bare Node, which has no children
		slab = st.ColRead(metric.PlaneIncl, metricID)
	}
	incl := func(n *Node) float64 {
		if n.Incl.Store() == st {
			if r := int(n.Incl.Row()); r < len(slab) {
				return slab[r]
			}
			return 0
		}
		return n.Incl.Get(metricID)
	}
	return HotPathFunc(start, incl, t)
}

// HotPathFunc is HotPath with the inclusive metric read supplied by the
// caller: incl must return the scope's inclusive value of the selected
// column. Sessions use it to run Equation 3 over overlay (session-private)
// derived columns that are not resident in the tree's shared store; with a
// reader equivalent to the store lookup it returns exactly what HotPath
// returns.
func HotPathFunc(start *Node, incl func(*Node) float64, t float64) []*Node {
	if start == nil {
		return nil
	}
	if t <= 0 {
		t = DefaultHotPathThreshold
	}
	path := []*Node{start}
	cur := start
	for {
		var best *Node
		var bestVal float64
		for _, c := range cur.Children {
			if v := incl(c); best == nil || v > bestVal {
				best, bestVal = c, v
			}
		}
		if best == nil {
			return path
		}
		parentVal := incl(cur)
		if parentVal <= 0 || bestVal < t*parentVal {
			return path
		}
		path = append(path, best)
		cur = best
	}
}

// Flatten implements the Flat View's flattening operation (Section III-C):
// each scope with children is elided and replaced by its children; leaves
// are kept ("applying flattening to a childless scope has no effect").
// Flattening a list of sibling scopes once removes one layer of hierarchy,
// enabling direct comparison of, e.g., loops across different routines
// (Figure 6).
func Flatten(scopes []*Node) []*Node {
	var out []*Node
	for _, s := range scopes {
		if len(s.Children) == 0 {
			out = append(out, s)
			continue
		}
		out = append(out, s.Children...)
	}
	return out
}

// FlattenN applies Flatten n times.
func FlattenN(scopes []*Node, n int) []*Node {
	for i := 0; i < n; i++ {
		scopes = Flatten(scopes)
	}
	return scopes
}

// SortSpec selects the column and flavor scopes are ordered by. The zero
// value — column 0, inclusive, descending — is hpcviewer's default.
type SortSpec struct {
	// MetricID is the column to sort by.
	MetricID int
	// Exclusive compares exclusive values instead of inclusive ones.
	Exclusive bool
	// Ascending inverts the default descending order.
	Ascending bool
	// ByLabel sorts A→Z by the scope labels in the navigation pane
	// instead of a metric column (the capability the paper's footnote 2
	// notes "arose from design orthogonality"); Ascending is ignored.
	ByLabel bool
}

func (s SortSpec) value(n *Node) float64 {
	if s.Exclusive {
		return n.Excl.Get(s.MetricID)
	}
	return n.Incl.Get(s.MetricID)
}

// SortScopes orders a sibling list by the spec, breaking ties by label so
// output is deterministic. The paper's navigation pane keeps every level
// sorted by the selected metric column (Section V-A).
//
// Stable-sorting by a fixed less relation is uniquely determined, so the
// slices.SortStableFunc comparator here orders identically to the
// sort.SliceStable closure it replaces — without the interface boxing and
// per-call closure allocations. Metric reads are direct slab loads and
// tie-break labels come from the per-node label cache, so steady-state
// sorting does not allocate.
func SortScopes(scopes []*Node, spec SortSpec) {
	if spec.ByLabel {
		SortScopesFunc(scopes, spec, nil)
		return
	}
	// Hoist the metric column slab out of the O(n log n) comparisons: each
	// comparison is two direct row loads (a sibling of another store reads
	// through its view). The
	// read-only slab may lag the row count; rows past its end are zero.
	plane := metric.PlaneIncl
	if spec.Exclusive {
		plane = metric.PlaneExcl
	}
	var st *metric.Store
	var slab []float64
	if len(scopes) > 0 {
		if st = scopes[0].Incl.Store(); st != nil {
			slab = st.ColRead(plane, spec.MetricID)
		}
	}
	value := func(n *Node) float64 {
		v := &n.Incl
		if spec.Exclusive {
			v = &n.Excl
		}
		if v.Store() == st {
			if r := int(v.Row()); r < len(slab) {
				return slab[r]
			}
			return 0
		}
		return v.Get(spec.MetricID)
	}
	SortScopesFunc(scopes, spec, value)
}

// SortScopesFunc is SortScopes with the sort key supplied by the caller:
// value must return the scope's value in the selected column and flavor.
// Sessions use it to order sibling lists by overlay (session-private)
// derived columns; with a reader equivalent to the store lookup it orders
// exactly as SortScopes does — same direction handling, same NaN ties, same
// label tie-break. A ByLabel spec ignores value.
func SortScopesFunc(scopes []*Node, spec SortSpec, value func(*Node) float64) {
	if spec.ByLabel {
		slices.SortStableFunc(scopes, func(a, b *Node) int {
			return strings.Compare(a.labelString(), b.labelString())
		})
		return
	}
	slices.SortStableFunc(scopes, func(x, y *Node) int {
		a, b := value(x), value(y)
		if a != b {
			// Translated from the former sort.SliceStable less function:
			// NaNs compare as ties here (both directions false), with no
			// label fallback, preserving its exact ordering.
			if spec.Ascending {
				switch {
				case a < b:
					return -1
				case b < a:
					return 1
				}
				return 0
			}
			switch {
			case a > b:
				return -1
			case b > a:
				return 1
			}
			return 0
		}
		return strings.Compare(x.labelString(), y.labelString())
	})
}
