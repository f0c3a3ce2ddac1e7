package engine

import (
	"repro/internal/core"
	"repro/internal/metric"
)

// Session-private derived metrics never write to any metric store: the
// stores belong to the shared snapshot (the tree's) or to views that copy
// from it, and sessions must not be able to observe each other's formulas.
// Instead a session materializes each of its derived columns into overlay
// slabs — one []float64 per (store, column, flavor), computed on first read
// with the same compiled column kernel ApplyDerivedTree uses, then indexed
// by row exactly like a resident slab.
//
// Semantics: a derived column is a spreadsheet formula over the row it is
// read at, in every view, as the view builders evaluate the database's own
// formulas (DESIGN.md §4.7). On Calling Context View scopes that is the
// formula over the scope's own metrics; on Callers/Flat View scopes it is
// the formula over the row's aggregated inputs, so the value is a pure
// function of the view row whenever the view was built relative to the
// registration — the property concurrent-session equivalence rests on.

// overlayCols holds one store's materialized overlay columns per flavor.
type overlayCols struct {
	incl map[int][]float64
	excl map[int][]float64
}

func (oc *overlayCols) plane(inclusive bool) map[int][]float64 {
	if inclusive {
		return oc.incl
	}
	return oc.excl
}

// cellValue reads one metric cell for the session: resident columns come
// straight from the node's views (byte-identical to the single-session
// viewer), session-derived columns from the overlay. It is the sort,
// hot-path and statistics key reader (the overlay is session-private, so
// materializing it lazily here is safe).
func (s *Session) cellValue(n *core.Node, id int, inclusive bool) float64 {
	if id < s.snap.baseCols {
		if inclusive {
			return n.Incl.Get(id)
		}
		return n.Excl.Get(id)
	}
	slab := s.overlaySlab(n.Incl.Store(), id, inclusive)
	if r := int(n.Incl.Row()); r < len(slab) {
		return slab[r]
	}
	return 0
}

// columnSlab is the render layer's Options.Slab hook — cellValue a column
// at a time: the store's own slab for resident columns, the overlay's for
// session-derived ones.
func (s *Session) columnSlab(st *metric.Store, id int, inclusive bool) []float64 {
	if id >= s.snap.baseCols {
		return s.overlaySlab(st, id, inclusive)
	}
	if inclusive {
		return st.ColRead(metric.PlaneIncl, id)
	}
	return st.ColRead(metric.PlaneExcl, id)
}

// overlaySlab returns the materialized overlay column for (store, id,
// flavor), computing it on first use and again once the store has grown
// (expanding a Callers View root adds rows to its store).
func (s *Session) overlaySlab(st *metric.Store, id int, inclusive bool) []float64 {
	if s.overlay == nil {
		s.overlay = map[*metric.Store]*overlayCols{}
	}
	oc := s.overlay[st]
	if oc == nil {
		oc = &overlayCols{incl: map[int][]float64{}, excl: map[int][]float64{}}
		s.overlay[st] = oc
	}
	plane := oc.plane(inclusive)
	if slab, ok := plane[id]; ok && len(slab) == st.NumRows() {
		return slab
	}
	slab := s.materializeOverlay(st, id, inclusive)
	plane[id] = slab
	return slab
}

// materializeOverlay runs a derived column's compiled kernel over one
// store's rows. References below the base boundary read the store's
// resident slabs (read-only — never materializing columns in the shared
// store); references at or above it recurse into earlier overlay columns
// (the registry validated refs are strictly earlier, so this terminates).
func (s *Session) materializeOverlay(st *metric.Store, id int, inclusive bool) []float64 {
	rows := st.NumRows()
	dst := make([]float64, rows)
	d := s.reg.ByID(id)
	if d == nil || d.Kind != metric.Derived {
		return dst
	}
	prog, err := d.Program()
	if err != nil {
		// Registry-accepted formulas always compile; a failure here would
		// mean a hand-constructed Desc, which reads as zero.
		return dst
	}
	plane := metric.PlaneExcl
	if inclusive {
		plane = metric.PlaneIncl
	}
	refs := prog.ColumnRefs()
	cols := make([][]float64, len(refs))
	for i, rc := range refs {
		if rc >= s.snap.baseCols {
			cols[i] = s.overlaySlab(st, rc, inclusive)
			continue
		}
		src := st.ColRead(plane, rc)
		if len(src) >= rows {
			cols[i] = src
			continue
		}
		// The read-only slab may lag the row count (or be absent); the
		// kernel requires full-length inputs, so pad a copy.
		pad := make([]float64, rows)
		copy(pad, src)
		cols[i] = pad
	}
	prog.EvalCols(dst, cols)
	return dst
}

// total supplies percent denominators: resident columns use the tree's
// root totals (identical to the single-session viewer), overlay columns
// the root's overlay value.
func (s *Session) total(metricID int) float64 {
	if metricID < s.snap.baseCols {
		return s.snap.exp.Tree.Total(metricID)
	}
	return s.cellValue(s.snap.exp.Tree.Root, metricID, true)
}
