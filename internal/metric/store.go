package metric

import "fmt"

// Store is a columnar (struct-of-arrays) metric store: one contiguous
// []float64 slab per metric column per plane, indexed by dense row id. A
// tree allocates one row per scope, so the query hot paths — Equation 1/2
// recomputation, column sorts, derived-metric kernels, summary sweeps —
// become linear passes over contiguous memory.
//
// A scope sees its row as a sparse vector (View): zeros are
// indistinguishable from absent entries, negative zero is never stored, and
// Range/Len enumerate only non-zero cells in ascending column order — which
// is what the sparse on-disk formats serialize.
//
// Slabs grow lazily: a column's slab may be shorter than the row count
// (reads past the end are zero) and is only extended — zero-filled, with
// geometric capacity — when a row actually writes to it. AddRow is
// therefore allocation-free, which keeps tree construction cheap.
//
// A Derived column of the store's registry is never stored: it is a formula
// over its row's own cells (Section V-D), evaluated over the whole column by
// the first read of each plane after the store last changed (see
// Evaluator). Writes to such a column are never read.
//
// Concurrency: a store is single-writer, like the node arena that owns it.
// Concurrent readers are safe once writes have ceased; the first reads of a
// derived column-plane synchronize among themselves.

// Plane selects which of a scope's three metric flavors a column belongs
// to: directly attributed Base values, presented inclusive (Equation 2) or
// presented exclusive (Equation 1) costs.
type Plane uint8

const (
	PlaneBase Plane = iota
	PlaneIncl
	PlaneExcl
	numPlanes
)

// Store holds the column slabs. The zero value is not ready to use; call
// NewStore.
//
// Ownership: slabs are normally heap memory owned by the store, but a
// loader may install foreign memory — an mmap'd v3 column section — with
// AdoptCol(..., borrowed=true). Borrowed slabs are strictly read-only;
// every write path (Col, set, add, View.Reset) detaches them first by
// copying to owned heap memory (copy-on-write), so a mapped file's bytes
// can never be scribbled through the store.
type Store struct {
	rows   int
	planes [numPlanes][][]float64
	// borrowed marks columns whose slab aliases foreign read-only memory;
	// indexes parallel planes (absent entries mean owned).
	borrowed [numPlanes][]bool
	// version counts the writes: a derived column-plane evaluated at one
	// version is stale at any other.
	version uint64
	// derived evaluates the registry's Derived columns on read.
	derived Evaluator
}

// NewStore returns an empty store with no rows and no formulas.
func NewStore() *Store { return &Store{} }

// NewStore returns an empty store whose Derived columns are r's formulas,
// those registered later included.
func (r *Registry) NewStore() *Store {
	s := &Store{}
	s.derived.st, s.derived.reg = s, r
	return s
}

// NumRows reports how many rows have been allocated.
func (s *Store) NumRows() int { return s.rows }

// NumCols reports how many columns plane p has materialized. Columns appear
// on first write, in ascending id order (writes to column c materialize
// slots 0..c).
func (s *Store) NumCols(p Plane) int { return len(s.planes[p]) }

// AddRow claims the next dense row id without allocating: slabs are
// extended lazily when the row first writes to a column.
func (s *Store) AddRow() int32 {
	r := s.rows
	s.rows++
	s.version++
	return int32(r)
}

// MarkStale makes the next read of every derived column-plane evaluate it
// again. Every write path does so itself; a writer that fills a slab Col
// returned marks nothing further.
func (s *Store) MarkStale() { s.version++ }

// Col returns plane p's slab for column col, materialized to the full
// current row count — the entry point for whole-column kernel sweeps.
// The slice is owned by the store: it is valid until the next row is added
// or the slab is grown by a write to a higher row.
func (s *Store) Col(p Plane, col int) []float64 {
	if s.rows == 0 {
		s.ensureCol(p, col)
		return nil
	}
	return s.slabFor(p, col, int32(s.rows-1))
}

// ColRead returns column col's slab exactly as currently materialized —
// possibly shorter than the row count, possibly nil — without growing
// anything; a derived column's is its formula evaluated over every row.
// Unlike Col it never writes a stored slab, so concurrent readers (parallel
// view builds, sorts, hot-path queries over a finished tree) may call it
// freely; rows beyond its length read as zero.
func (s *Store) ColRead(p Plane, col int) []float64 {
	if prog := s.derived.program(p, col); prog != nil {
		return s.derived.read(p, col, prog)
	}
	return s.stored(p, col)
}

// stored returns column col's stored slab, nil if there is none.
func (s *Store) stored(p Plane, col int) []float64 {
	cols := s.planes[p]
	if col < 0 || col >= len(cols) {
		return nil
	}
	return cols[col]
}

// AdoptCol installs slab as column col of plane p, replacing whatever was
// there. With borrowed=true the slab is treated as foreign read-only memory
// (e.g. a float64 view over an mmap'd file section): reads serve it
// zero-copy and the first write detaches it by copying (see unborrow).
// The slab length fixes how many rows read from it; rows beyond read zero.
func (s *Store) AdoptCol(p Plane, col int, slab []float64, borrowed bool) {
	s.ensureCol(p, col)
	s.version++
	s.planes[p][col] = slab
	s.setBorrowed(p, col, borrowed)
}

// Borrowed reports whether column col of plane p currently aliases foreign
// memory (no write has detached it yet).
func (s *Store) Borrowed(p Plane, col int) bool {
	bs := s.borrowed[p]
	return col >= 0 && col < len(bs) && bs[col]
}

func (s *Store) setBorrowed(p Plane, col int, v bool) {
	bs := s.borrowed[p]
	if !v && col >= len(bs) {
		return
	}
	for col >= len(bs) {
		bs = append(bs, false)
	}
	bs[col] = v
	s.borrowed[p] = bs
}

// unborrow detaches a borrowed slab by copying it to owned heap memory —
// the copy-on-write step guarding every store write path.
func (s *Store) unborrow(p Plane, col int) {
	slab := s.planes[p][col]
	owned := make([]float64, len(slab))
	copy(owned, slab)
	s.planes[p][col] = owned
	s.setBorrowed(p, col, false)
}

func (s *Store) get(p Plane, col int, row int32) float64 {
	slab := s.ColRead(p, col)
	if int(row) >= len(slab) {
		return 0
	}
	return slab[row]
}

// set stores x, normalizing zero: a zero cell is an absent entry, so a
// negative zero (e.g. from `$0 * -1` at a blank cell) must not be
// observable. Writing a zero to a row the slab has not reached stays free.
func (s *Store) set(p Plane, col int, row int32, x float64) {
	if x == 0 {
		if slab := s.stored(p, col); int(row) < len(slab) && slab[row] != 0 {
			if s.Borrowed(p, col) {
				s.unborrow(p, col)
			}
			s.version++
			s.planes[p][col][row] = 0
		}
		return
	}
	s.slabFor(p, col, row)[row] = x
}

func (s *Store) add(p Plane, col int, row int32, x float64) {
	if x == 0 {
		return
	}
	s.slabFor(p, col, row)[row] += x
}

func (s *Store) ensureCol(p Plane, col int) {
	cols := s.planes[p]
	for col >= len(cols) {
		cols = append(cols, nil)
	}
	s.planes[p] = cols
}

// slabFor returns column col of plane p with length at least row+1,
// zero-filling and growing capacity geometrically as needed. Go heap
// allocations are zeroed through their full capacity and slabs never
// shrink, so re-slicing within capacity exposes only zeros.
func (s *Store) slabFor(p Plane, col int, row int32) []float64 {
	s.ensureCol(p, col)
	s.version++
	if s.Borrowed(p, col) {
		s.unborrow(p, col)
	}
	slab := s.planes[p][col]
	if n := int(row) + 1; n > len(slab) {
		if n > cap(slab) {
			c := 2 * cap(slab)
			if c < 64 {
				c = 64
			}
			if c < n {
				c = n
			}
			grown := make([]float64, n, c)
			copy(grown, slab)
			slab = grown
		} else {
			slab = slab[:n]
		}
		s.planes[p][col] = slab
	}
	return slab
}

// View is a scope's handle on one plane of a store row: the scope's metric
// vector, with the blank-zero rule of Section V-A ("any metric table cell
// where data is zero is left blank") built into its enumeration — Range and
// Len see only non-zero cells, in ascending column order — while column
// sweeps go straight to the slabs.
//
// The zero View (no store) is a valid empty, read-only view, so a bare
// Node can stand in as a sentinel; writing through it panics. A View must
// not be moved to a different tree: slab views never alias across trees
// (each tree, callers-view root and flat view owns a private store).
type View struct {
	s   *Store
	row int32
	p   Plane
}

// NewView binds a view to one plane of a store row.
func NewView(s *Store, p Plane, row int32) View { return View{s: s, p: p, row: row} }

// Store returns the backing store (nil for the zero View).
func (v *View) Store() *Store { return v.s }

// Row returns the dense row id within the backing store.
func (v *View) Row() int32 { return v.row }

// cols returns the view's plane of stored slabs (none for the zero View).
func (v *View) cols() [][]float64 {
	if v.s == nil {
		return nil
	}
	return v.s.planes[v.p]
}

// store returns the backing store for a write.
func (v *View) store() *Store {
	if v.s == nil {
		panic("metric: write through a View bound to no store; scopes that hold costs are made by core.Node.Child under a core.Tree")
	}
	return v.s
}

// Get returns the value in column id (zero if absent).
func (v *View) Get(id int) float64 {
	if v.s == nil {
		return 0
	}
	return v.s.get(v.p, id, v.row)
}

// Set stores x in column id; zero clears the cell.
func (v *View) Set(id int, x float64) { v.store().set(v.p, id, v.row, x) }

// Add adds x to column id.
func (v *View) Add(id int, x float64) {
	if x != 0 {
		v.store().add(v.p, id, v.row, x)
	}
}

// AddView adds every non-zero stored entry of o, in ascending column order.
// Derived columns are left out: a derived cell is a formula over its own
// row, never a sum of others.
func (v *View) AddView(o *View) {
	row := int(o.row)
	for id, slab := range o.cols() {
		if row < len(slab) && o.s.derived.program(o.p, id) == nil {
			if x := slab[row]; x != 0 {
				v.store().add(v.p, id, v.row, x)
			}
		}
	}
}

// Range calls f for every non-zero entry in ascending column order.
func (v *View) Range(f func(id int, x float64)) {
	if v.s == nil {
		return
	}
	n := len(v.cols()) // stored columns, and on a presented plane every formula
	if reg := v.s.derived.reg; reg != nil && v.p != PlaneBase {
		n = max(n, reg.Len())
	}
	for id := 0; id < n; id++ {
		if x := v.s.get(v.p, id, v.row); x != 0 {
			f(id, x)
		}
	}
}

// Len reports the number of non-zero entries.
func (v *View) Len() int {
	n := 0
	v.Range(func(int, float64) { n++ })
	return n
}

// Reset clears every entry.
func (v *View) Reset() {
	row := int(v.row)
	for id, slab := range v.cols() {
		if row < len(slab) && slab[row] != 0 {
			// Route through set so a borrowed (mapped) slab is detached
			// before the write.
			v.s.set(v.p, id, v.row, 0)
		}
	}
}

// String renders the view for debugging, e.g. "{0:12 2:3.5}".
func (v *View) String() string {
	s := "{"
	v.Range(func(id int, x float64) {
		if len(s) > 1 {
			s += " "
		}
		s += fmt.Sprintf("%d:%g", id, x)
	})
	return s + "}"
}
