package metric

import (
	"sync"
	"sync/atomic"
)

// An Evaluator evaluates a registry's Derived columns over one store's rows
// (Section V-D: a derived cell is a formula over its own row's cells). No
// writer evaluates them: each column-plane is evaluated by its compiled
// Program on its first read and served from that slab until the store
// changes. The store's write paths count its version, and a slab of another
// version is evaluated again on its next read — after Equation 1/2
// recomputation, a refill of the columns a formula reads, or rows added to
// the store (a Callers View root's expansion).
//
// Every store evaluates its registry's formulas with one (from = 0); a
// session evaluates its private formulas — its registry from the shared
// columns up — with one per store it reads them on, which writes nothing
// to the store. A formula reads earlier columns only, so evaluating one
// may evaluate those first, and never itself.
type Evaluator struct {
	st   *Store
	reg  *Registry
	from int
	// tab holds a column-plane's slab at 2*(col-from)+plane-PlaneIncl.
	// Readers load it without a lock; mu orders the copy that grows it
	// after a registration.
	tab atomic.Pointer[[]*lazyCol]
	mu  sync.Mutex
}

// lazyCol is one evaluated column-plane.
type lazyCol struct {
	at   atomic.Uint64 // the store version slab was evaluated at, plus one
	mu   sync.Mutex    // held while evaluating
	slab []float64
	cols [][]float64 // the kernel's input slabs, reused
}

// NewEvaluator returns an evaluator of reg's Derived columns from column
// from up on st; it writes nothing to st.
func NewEvaluator(st *Store, reg *Registry, from int) *Evaluator {
	return &Evaluator{st: st, reg: reg, from: from}
}

// ColRead is the store's ColRead with the evaluator's columns added.
func (e *Evaluator) ColRead(p Plane, col int) []float64 {
	if prog := e.program(p, col); prog != nil {
		return e.read(p, col, prog)
	}
	return e.st.ColRead(p, col)
}

// program returns the formula of column col, nil unless col is one of the
// evaluator's Derived columns and p a presented plane.
func (e *Evaluator) program(p Plane, col int) *Program {
	if p == PlaneBase || e.reg == nil || col < e.from {
		return nil
	}
	return e.reg.program(col)
}

// read returns column col of plane p evaluated at the store's version.
func (e *Evaluator) read(p Plane, col int, prog *Program) []float64 {
	lc := e.entry(2*(col-e.from) + int(p-PlaneIncl))
	at := e.st.version + 1
	if lc.at.Load() == at {
		return lc.slab
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.at.Load() != at { // not evaluated by a concurrent first read
		for _, rc := range prog.ColumnRefs() {
			lc.cols = append(lc.cols, e.ColRead(p, rc))
		}
		if rows := e.st.rows; cap(lc.slab) < rows {
			lc.slab = make([]float64, rows)
		} else {
			lc.slab = lc.slab[:rows]
		}
		prog.EvalCols(lc.slab, lc.cols)
		clear(lc.cols)
		lc.cols = lc.cols[:0]
		lc.at.Store(at)
	}
	return lc.slab
}

// entry returns the i'th column-plane, growing the table to the
// registry's length when i lies past it.
func (e *Evaluator) entry(i int) *lazyCol {
	if tab := e.tab.Load(); tab != nil && i < len(*tab) {
		return (*tab)[i]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	tab := e.tab.Load()
	if tab == nil || i >= len(*tab) {
		grown := make([]*lazyCol, 2*(e.reg.Len()-e.from))
		n := 0
		if tab != nil {
			n = copy(grown, *tab)
		}
		// One allocation for every new column-plane, not one each: a
		// registry's table holds raw columns too, which are never evaluated.
		fresh := make([]lazyCol, len(grown)-n)
		for j := range fresh {
			grown[n+j] = &fresh[j]
		}
		tab = &grown
		e.tab.Store(tab)
	}
	return (*tab)[i]
}
