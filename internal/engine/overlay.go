package engine

import (
	"repro/internal/core"
	"repro/internal/metric"
)

// Session-private derived metrics never write to any metric store: the
// stores belong to the shared snapshot (the tree's) or to views that copy
// from it, and sessions must not be able to observe each other's formulas.
// Instead a session keeps one metric.Evaluator per store it reads a session
// column on: the evaluator every store runs for its registry's formulas,
// given the session's own — its registry from the snapshot's sealed
// columns up. Each column-plane is evaluated on its first read over the
// store's rows and indexed by row exactly like a resident slab.
//
// Semantics: a derived column is a spreadsheet formula over the row it is
// read at, in every view, as the view stores evaluate the database's own
// formulas (DESIGN.md §4.7). On Calling Context View scopes that is the
// formula over the scope's own metrics; on Callers/Flat View scopes it is
// the formula over the row's aggregated inputs, so the value is a pure
// function of the view row whenever the view was built relative to the
// registration — the property concurrent-session equivalence rests on.

// Value reads one metric cell of a scope the session shows, the session's
// own derived columns included.
func (s *Session) Value(n *core.Node, id int, inclusive bool) float64 {
	return s.cellValue(n, id, inclusive)
}

// cellValue reads one metric cell for the session, as columnSlab does. It
// is the sort, hot-path and statistics key reader.
func (s *Session) cellValue(n *core.Node, id int, inclusive bool) float64 {
	if st := n.Incl.Store(); st != nil {
		if slab, r := s.columnSlab(st, id, inclusive), int(n.Incl.Row()); r < len(slab) {
			return slab[r]
		}
	}
	return 0
}

// columnSlab is the render layer's Options.Slab hook: the store's own slab
// for resident columns (byte-identical to the single-session viewer), the
// session evaluator's for session-derived ones.
func (s *Session) columnSlab(st *metric.Store, id int, inclusive bool) []float64 {
	p := metric.PlaneExcl
	if inclusive {
		p = metric.PlaneIncl
	}
	if id < s.snap.baseCols {
		return st.ColRead(p, id)
	}
	ev := s.overlay[st]
	if ev == nil {
		if s.overlay == nil {
			s.overlay = map[*metric.Store]*metric.Evaluator{}
		}
		ev = metric.NewEvaluator(st, s.reg, s.snap.baseCols)
		s.overlay[st] = ev
	}
	return ev.ColRead(p, id)
}

// total supplies percent denominators: the root's inclusive value.
func (s *Session) total(metricID int) float64 {
	return s.cellValue(s.snap.exp.Tree.Root, metricID, true)
}
