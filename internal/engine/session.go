package engine

import (
	"context"
	"fmt"
	"html"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/imbalance"
	"repro/internal/metric"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/render"
	"repro/internal/structfile"
)

// ViewKind selects the active view.
type ViewKind uint8

const (
	// ViewCC is the Calling Context View.
	ViewCC ViewKind = iota
	// ViewCallers is the bottom-up Callers View.
	ViewCallers
	// ViewFlat is the static Flat View.
	ViewFlat
)

func (v ViewKind) String() string {
	switch v {
	case ViewCC:
		return "calling-context"
	case ViewCallers:
		return "callers"
	case ViewFlat:
		return "flat"
	}
	return fmt.Sprintf("ViewKind(%d)", uint8(v))
}

// Session is one user's interactive presentation of a shared snapshot: the
// stateful equivalent of hpcviewer's GUI, driven programmatically, from
// the hpcviewer REPL, or over HTTP by hpcserver.
//
// Concurrency: any number of sessions may run over one Snapshot at the
// same time — the shared scopes and metric slabs are immutable, so queries
// read them without a lock, and everything a session mutates (expansion/
// zoom/sort state, sort scratch, derived-metric overlays, its Flat View)
// is private to it. The Callers View is the snapshot's: sessions share its
// rows and the subtries any of them built, and each keeps its own record
// of the roots it opened. One Session is NOT safe for
// concurrent use by multiple goroutines; each frontend serializes the calls
// of a given session (the HTTP server locks per token).
type Session struct {
	snap *Snapshot
	// reg is the session's column registry: the snapshot's sealed columns
	// (shared descriptors) plus any session-registered derived columns.
	reg *metric.Registry
	// source, when non-nil, backs the source pane.
	source *prog.Program
	// doc and profiles, when attached, back the per-rank plot graphs.
	doc      *structfile.Doc
	profiles []*profile.Profile

	view ViewKind
	// callers is the snapshot's Callers View, shared with every session on
	// it; opened holds the roots this session expanded. A root's callers
	// are built on its first Expand by any session, and a session reads
	// them only once it has opened the root itself: until then the root
	// shows a +, whatever other sessions did.
	callers *core.CallersView
	opened  rowSet
	// flat is this session's Flat View, in a private arena and built to
	// what is shown: the rows below procedures come when first needed.
	flat *core.FlatView
	// expanded holds the open scopes, one bitset per store (see rowSet).
	expanded rowSet
	sort     core.SortSpec
	// zoom restricts the Calling Context View to one subtree.
	zoom []*core.Node
	// flatten is the Flat View's current flattening level.
	flatten   int
	selected  *core.Node
	highlight map[*core.Node]bool
	threshold float64
	// topN and maxDepth bound the visible rows (0 = unlimited).
	topN     int
	maxDepth int
	// columns selects the metric pane's columns (nil = all).
	columns []render.Column
	// rows caches the last computed visible rows (for addressing).
	rows []render.Row
	// scratch holds the sorted sibling lists of the row walk in progress.
	scratch []*core.Node

	// overlay evaluates the session-derived columns, per store; see
	// overlay.go.
	overlay map[*metric.Store]*metric.Evaluator

	// catalog resolves database names for the diff command (nil = none).
	catalog Catalog
	// home is the snapshot the session presented before Compare rebased it
	// onto a diff (nil when not in a diff).
	home *Snapshot

	// released guards the one-shot reference release in Close (Close may
	// be called more than once, e.g. abort then defer).
	released atomic.Bool
	// ctx is cancelled by Close; in-flight callers-view expansion observes
	// it between roots.
	ctx    context.Context
	cancel context.CancelFunc
}

// NewSession opens a session over a snapshot.
func NewSession(snap *Snapshot) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	snap.Retain()
	return &Session{
		snap:      snap,
		reg:       snap.exp.Tree.Reg.Clone(),
		highlight: map[*core.Node]bool{},
		threshold: core.DefaultHotPathThreshold,
		ctx:       ctx,
		cancel:    cancel,
	}
}

// Close cancels the session: in-flight bulk expansion stops at the next
// root, and the shared snapshot is untouched (the session writes nothing
// shared). Close is safe to call from another goroutine — it is
// how a frontend aborts a stuck query — and releases the session's
// snapshot references exactly once, so a mapped database is unmapped only
// after its last session is gone.
func (s *Session) Close() {
	s.cancel()
	if s.released.CompareAndSwap(false, true) {
		s.snap.Release()
		if s.home != nil {
			s.home.Release()
		}
	}
}

// Cancel stops the session's in-flight work — bulk expansion observes the
// context between roots — without releasing its snapshot references. Use it
// when a concurrent goroutine may still be inside Do and the mapping must
// stay alive until it drains; call Close once it has.
func (s *Session) Cancel() { s.cancel() }

// Context returns the session's lifetime context (done after Close).
func (s *Session) Context() context.Context { return s.ctx }

// Snapshot returns the shared snapshot the session presents.
func (s *Session) Snapshot() *Snapshot { return s.snap }

// Tree returns the underlying shared tree. Callers must treat it as
// read-only.
func (s *Session) Tree() *core.Tree { return s.snap.exp.Tree }

// Registry returns the session's column registry: the snapshot's sealed
// columns plus this session's derived columns. Other sessions never see
// the latter.
func (s *Session) Registry() *metric.Registry { return s.reg }

// SetSource attaches the program source backing the source pane.
func (s *Session) SetSource(p *prog.Program) { s.source = p }

// SetJobs does nothing.
//
// Deprecated: bulk callers-view expansion sizes its pool from GOMAXPROCS.
func (s *Session) SetJobs(jobs int) {}

// View returns the active view kind.
func (s *Session) View() ViewKind { return s.view }

// SwitchView changes the active view, preserving sort and threshold but
// clearing expansion, zoom and highlights (each view has its own scopes).
func (s *Session) SwitchView(v ViewKind) {
	if v == s.view {
		return
	}
	s.view = v
	s.expanded.clear()
	s.highlight = map[*core.Node]bool{}
	s.zoom = nil
	s.selected = nil
	s.rows = nil
}

// SetSort selects the sort column/flavor.
func (s *Session) SetSort(spec core.SortSpec) { s.sort = spec }

// Sort returns the current sort spec.
func (s *Session) Sort() core.SortSpec { return s.sort }

// SetThreshold adjusts the hot-path threshold (the paper exposes it as a
// preference; values outside (0,1] restore the default).
func (s *Session) SetThreshold(t float64) {
	if t <= 0 || t > 1 {
		t = core.DefaultHotPathThreshold
	}
	s.threshold = t
}

// Threshold returns the hot-path threshold.
func (s *Session) Threshold() float64 { return s.threshold }

// SetLimits bounds the visible rows: at most topN scopes of every sibling
// list, the top level's too, and maxDepth levels (0 = unlimited).
func (s *Session) SetLimits(topN, maxDepth int) {
	s.topN, s.maxDepth = topN, maxDepth
}

// Limits returns the current topN and maxDepth bounds.
func (s *Session) Limits() (topN, maxDepth int) { return s.topN, s.maxDepth }

// SetColumns selects which metric columns the metric pane shows (nil
// restores all columns).
func (s *Session) SetColumns(cols []render.Column) { s.columns = cols }

// Select makes the node the current selection (for source pane and
// hot-path starting point).
func (s *Session) Select(n *core.Node) { s.selected = n }

// Selected returns the current selection (nil if none).
func (s *Session) Selected() *core.Node { return s.selected }

// Collapse closes one scope.
func (s *Session) Collapse(n *core.Node) { s.expanded.set(n, false) }

// ZoomIn restricts the Calling Context View to the subtree at n.
func (s *Session) ZoomIn(n *core.Node) error {
	if s.view != ViewCC {
		return fmt.Errorf("engine: zoom applies to the calling context view")
	}
	s.zoom = append(s.zoom, n)
	return nil
}

// ZoomOut undoes one ZoomIn.
func (s *Session) ZoomOut() {
	if len(s.zoom) > 0 {
		s.zoom = s.zoom[:len(s.zoom)-1]
	}
}

// FlattenOnce elides the Flat View's current top level (Section III-C).
func (s *Session) FlattenOnce() error {
	if s.view != ViewFlat {
		return fmt.Errorf("engine: flattening applies to the flat view")
	}
	s.flatten++
	return nil
}

// Unflatten undoes one FlattenOnce.
func (s *Session) Unflatten() {
	if s.flatten > 0 {
		s.flatten--
	}
}

// FlattenLevel reports the current flattening depth.
func (s *Session) FlattenLevel() int { return s.flatten }

// roots returns the active view's current top-level scopes. Builds the
// Callers View or the Flat View on first use.
func (s *Session) roots() []*core.Node {
	switch s.view {
	case ViewCC:
		if len(s.zoom) > 0 {
			return s.zoom[len(s.zoom)-1].Children
		}
		return s.snap.exp.Tree.Root.Children
	case ViewCallers:
		if s.callers == nil {
			s.callers = s.snap.CallersView()
		}
		return s.callers.Roots
	case ViewFlat:
		// Flattened past the procedures, the rows below them are on top.
		return core.FlattenN(s.flatView(s.flatten > 2).Roots, s.flatten)
	}
	return nil
}

// flatView returns the session's Flat View, built to the procedure rows on
// first use and with the rows below them when below is true (in one pass
// when both come at once).
func (s *Session) flatView(below bool) *core.FlatView {
	switch {
	case s.flat == nil && below:
		s.flat = core.BuildFlatView(s.snap.exp.Tree)
	case s.flat == nil:
		s.flat = core.BuildFlatViewLazy(s.snap.exp.Tree)
	case below:
		s.flat.Complete()
	}
	return s.flat
}

// VisibleRows recomputes and returns the rows currently on screen (see
// render.Walk): top-level scopes always, descendants only along expanded
// chains, every sibling list ordered by the session sort.
func (s *Session) VisibleRows() []render.Row {
	s.rows = s.rows[:0]
	s.walk(func(row render.Row) error {
		s.rows = append(s.rows, row)
		return nil
	})
	return s.rows
}

// walk is the session's render.RowSource: it calls emit with the visible
// rows in order, as VisibleRows returns them, without keeping them.
func (s *Session) walk(emit func(render.Row) error) error {
	s.scratch = s.scratch[:0]
	return render.Walk(s.roots(), (*presenter)(s), s.topN, s.maxDepth, emit)
}

// presenter is the session as the row walk's render.Presenter.
type presenter Session

func (p *presenter) Order(ns []*core.Node) []*core.Node { return (*Session)(p).sortedSiblings(ns) }

// Expanded: a Callers View root the session has not opened may have its
// callers not built yet, or in the making for another session, so it is
// expandable regardless, and not read.
func (p *presenter) Expanded(n *core.Node) (open, unread bool) {
	s := (*Session)(p)
	if s.unopened(n) {
		return false, true
	}
	return s.expanded.has(n), false
}

// unopened reports whether n is a Callers View root this session has not
// opened, so that it must not read n's Children.
func (s *Session) unopened(n *core.Node) bool {
	return s.view == ViewCallers && n.Parent == nil && !s.opened.has(n)
}

// open expands a Callers View root for this session: its callers are
// built, by this call or by any session's before, and the session records
// that it may read them. Other nodes are left as they are.
func (s *Session) open(n *core.Node) {
	s.callers.Expand(n)
	if s.callers.Expanded(n) {
		s.opened.set(n, true)
	}
}

// sortedSiblings returns ns ordered by the session sort. Callers may
// re-slice the result but must not reorder it, and must not keep it past
// the row walk that asked for it.
//
// A list of at most one scope has one order: it is returned as it is, with
// no copy or sort (most scopes of a CCT have a single child). A longer list
// is copied into the walk's scratch buffer and sorted there, so the tree's
// own Children keep database order.
func (s *Session) sortedSiblings(ns []*core.Node) []*core.Node {
	if len(ns) < 2 {
		return ns
	}
	// Earlier orders of this walk stay valid in the old array when the
	// append moves the buffer.
	start := len(s.scratch)
	s.scratch = append(s.scratch, ns...)
	sorted := s.scratch[start:len(s.scratch):len(s.scratch)]
	if s.sort.ByLabel || s.sort.MetricID < s.snap.baseCols {
		core.SortScopes(sorted, s.sort)
		return sorted
	}
	// Session-derived sort column: same comparator, with the keys read from
	// the evaluated slab of the list's store, resolved once per list as
	// SortScopes resolves a resident column. A scope of another store reads
	// its own.
	inclusive := !s.sort.Exclusive
	id := s.sort.MetricID
	st := sorted[0].Incl.Store()
	slab := s.columnSlab(st, id, inclusive)
	core.SortScopesFunc(sorted, s.sort, func(n *core.Node) float64 {
		if n.Incl.Store() != st {
			return s.cellValue(n, id, inclusive)
		}
		if r := int(n.Incl.Row()); r < len(slab) {
			return slab[r]
		}
		return 0
	})
	return sorted
}

// RowNode resolves a row number from the last VisibleRows/Render call
// (computing the rows first if none have been rendered yet).
func (s *Session) RowNode(idx int) (*core.Node, error) {
	if len(s.rows) == 0 {
		s.VisibleRows()
	}
	if idx < 0 || idx >= len(s.rows) {
		return nil, fmt.Errorf("engine: row %d out of range (0..%d)", idx, len(s.rows)-1)
	}
	return s.rows[idx].Node, nil
}

// Expand opens one scope (for the Callers View this materializes the
// caller chain on demand — Section VII's lazy construction).
func (s *Session) Expand(n *core.Node) {
	if s.view == ViewCallers && s.callers != nil {
		s.open(n)
	}
	if s.view == ViewFlat && n.Kind == core.KindProc {
		s.flatView(true)
	}
	s.expanded.set(n, true)
}

// ExpandAll opens every scope under n (and n itself); a nil n opens every
// scope of the view shown. In the Callers View
// this materializes every caller subtrie on core.CallersView.ExpandAllCtx's
// pool, which can fail on a damaged view or be cut short by Close; the
// scopes opened so far stay open.
func (s *Session) ExpandAll(n *core.Node) error {
	if n == nil {
		return s.expandAllRows()
	}
	err := s.expandBelow()
	s.expandTree(n)
	return err
}

// expandTree opens n and every scope under it; below a Callers View root
// this session has not opened it opens the root alone.
func (s *Session) expandTree(n *core.Node) {
	if s.unopened(n) {
		s.expanded.set(n, true)
		return
	}
	s.expanded.setTree(n)
}

// expandAllRows is ExpandAll of every visible row — the `expandall`
// command without a row — with the rows below built once for all of them.
// Every visible row lies under one at depth 0, so opening those opens them
// all. On an error the first row is opened and the rest
// are not, as when each row was opened in turn.
func (s *Session) expandAllRows() error {
	err := s.expandBelow()
	for _, r := range s.VisibleRows() {
		if r.Depth == 0 {
			s.expandTree(r.Node)
		}
		if err != nil {
			break
		}
	}
	return err
}

// expandBelow builds every row of the view shown: the Flat View's rows
// below procedures, or every caller subtrie of the Callers View on
// core.CallersView.ExpandAllCtx's pool. When the pool stops early, the
// roots built by then, by any session, count as opened.
func (s *Session) expandBelow() error {
	switch s.view {
	case ViewFlat:
		s.flatView(true)
	case ViewCallers:
		if s.callers == nil {
			s.callers = s.snap.CallersView()
		}
		err := s.callers.ExpandAllCtx(s.ctx)
		for _, root := range s.callers.Roots {
			if s.callers.Expanded(root) {
				s.opened.set(root, true)
			}
		}
		return err
	}
	return nil
}

// HotPath runs hot-path analysis (Equation 3) over the given metric from
// the selection (or the whole view when nothing is selected), expands
// every scope along the path so it is visible, highlights it, and selects
// its endpoint — the paper's one-click drill-down.
func (s *Session) HotPath(metricID int) []*core.Node {
	if s.view == ViewFlat {
		s.flatView(true)
	}
	start := s.selected
	if start == nil {
		if s.view == ViewCC && len(s.zoom) > 0 {
			start = s.zoom[len(s.zoom)-1]
		} else if s.view == ViewCC {
			start = s.snap.exp.Tree.Root
		} else {
			// Derived views have a forest; start from the hottest root.
			roots := s.roots()
			if len(roots) == 0 {
				return nil
			}
			best := roots[0]
			for _, r := range roots[1:] {
				if s.cellValue(r, metricID, true) > s.cellValue(best, metricID, true) {
					best = r
				}
			}
			start = best
		}
	}
	if s.view == ViewCallers && s.callers != nil {
		// The path may need a lazily built caller chain.
		s.open(start)
	}
	path := core.HotPathFunc(start, func(n *core.Node) float64 {
		return s.cellValue(n, metricID, true)
	}, s.threshold)
	s.highlight = map[*core.Node]bool{}
	for _, n := range path {
		s.highlight[n] = true
		s.expanded.set(n, true)
	}
	if len(path) > 0 {
		s.selected = path[len(path)-1]
	}
	return path
}

// Render writes the visible rows with row numbers.
func (s *Session) Render(w io.Writer, opt render.Options) error {
	return render.RenderRows(w, s.VisibleRows(), s.reg, s.options(opt))
}

// RenderLines writes the visible rows as batch hpcviewer prints them (see
// render.RenderLines).
func (s *Session) RenderLines(w io.Writer) error {
	return render.RenderLines(w, s.walk, s.reg, s.options(render.Options{}))
}

// RenderHTML writes the three views as one self-contained HTML report,
// each shown with every scope open, to the session's limits, under its own
// heading, with the hot path of column hotMetric highlighted in the Calling
// Context View (a negative hotMetric highlights none). It builds the rows
// below the Flat View's procedures, and the callers of every Callers View
// root, on the pool, or under a top-N limit only of the roots the walk
// reaches. It marks no scope expanded, so the session is left on the Flat
// View with nothing expanded.
func (s *Session) RenderHTML(w io.Writer, title string, hotMetric int) error {
	if _, err := io.WriteString(w, "<!-- "+html.EscapeString(title)+": calling context / callers / flat -->\n"); err != nil {
		return err
	}
	for _, v := range []struct {
		kind ViewKind
		name string
	}{{ViewCC, "Calling Context View"}, {ViewCallers, "Callers View"}, {ViewFlat, "Flat View"}} {
		s.SwitchView(v.kind)
		if v.kind == ViewCC && hotMetric >= 0 {
			s.HotPath(hotMetric)
		}
		// The walk reaches every row of the Flat View, and every Callers
		// View root unless a top-N limit cuts the roots: build those rows
		// at once, the callers on the pool, rather than root by root.
		if v.kind == ViewFlat || s.topN == 0 {
			if err := s.expandBelow(); err != nil {
				return err
			}
		}
		rows := func(emit func(render.Row) error) error {
			s.scratch = s.scratch[:0]
			return render.Walk(s.roots(), (*openPresenter)(s), s.topN, s.maxDepth, emit)
		}
		if err := render.RenderHTML(w, title+" — "+v.name, rows, s.reg, s.options(render.Options{})); err != nil {
			return err
		}
	}
	return nil
}

// openPresenter is the session as a presenter that shows every scope open:
// a Callers View root is opened for the session when the walk reaches it.
type openPresenter Session

func (p *openPresenter) Order(ns []*core.Node) []*core.Node { return (*Session)(p).sortedSiblings(ns) }

func (p *openPresenter) Expanded(n *core.Node) (open, unread bool) {
	s := (*Session)(p)
	if s.unopened(n) {
		s.open(n)
	}
	return true, s.unopened(n)
}

// options completes opt with the session's columns, highlights, percent
// denominators and cell reader.
func (s *Session) options(opt render.Options) render.Options {
	if opt.Columns == nil {
		opt.Columns = s.columns
	}
	opt.Highlight = s.highlight
	if opt.Totals == nil {
		opt.Totals = s.total
	}
	if opt.Slab == nil {
		opt.Slab = s.columnSlab
	}
	return opt
}

// AddDerivedMetric registers a session-private derived column. Unlike the
// database's own derived metrics it is no formula of any store: the
// session's overlays evaluate it (see overlay.go), so concurrent sessions
// over the same snapshot cannot observe each other's formulas.
func (s *Session) AddDerivedMetric(name, formula string) error {
	_, err := s.reg.AddDerived(name, formula)
	return err
}

// SummaryStats folds one column's values over the current view's visible
// rows, inclusive or exclusive as asked (Section VII's mean/min/max/stddev
// summarization, applied to the scopes on screen).
func (s *Session) SummaryStats(metricID int, inclusive bool) metric.Stats {
	var st metric.Stats
	for _, row := range s.VisibleRows() {
		st.Observe(s.cellValue(row.Node, metricID, inclusive))
	}
	return st
}

// AttachProfiles supplies the raw per-rank profiles and the structure
// document, enabling per-rank plot graphs (the three graphs of Figure 7).
func (s *Session) AttachProfiles(doc *structfile.Doc, profs []*profile.Profile) {
	s.doc = doc
	s.profiles = profs
}

// Plot renders the per-rank distribution of the named metric at the
// selected Calling Context View scope: scatter, sorted series and
// histogram (Section VI-C). Requires AttachProfiles and a selection in the
// CC view (the per-rank series is defined by a calling context).
func (s *Session) Plot(w io.Writer, metricName string, bins int) error {
	if s.doc == nil || len(s.profiles) == 0 {
		return fmt.Errorf("engine: no profiles attached (plot needs the raw measurements)")
	}
	n := s.selected
	if n == nil {
		return fmt.Errorf("engine: nothing selected")
	}
	if s.view != ViewCC {
		return fmt.Errorf("engine: plots are defined over calling contexts (switch to the cc view)")
	}
	var path []string
	for _, a := range n.Path() {
		path = append(path, a.Label())
	}
	rep, err := imbalance.Analyze(s.doc, s.profiles, path, metricName, bins)
	if err != nil {
		return err
	}
	return rep.Render(w)
}

// ShowSource writes the source pane for the selection: the pseudo-source
// window around the scope's line. Call sites show the caller-side line
// (clicking the call-site icon in hpcviewer), everything else its own
// line.
func (s *Session) ShowSource(w io.Writer, context int) error {
	if s.source == nil {
		return fmt.Errorf("engine: no program source attached")
	}
	n := s.selected
	if n == nil {
		return fmt.Errorf("engine: nothing selected")
	}
	if n.NoSource {
		return fmt.Errorf("engine: %s is binary-only (no source)", n.Label())
	}
	file, line := n.File, n.Line
	if n.Kind == core.KindFrame && n.CallLine > 0 {
		file, line = n.CallFile, n.CallLine
	}
	if file == 0 || line <= 0 {
		return fmt.Errorf("engine: %s has no source location", n.Label())
	}
	fmt.Fprintf(w, "%s:%d (%s)\n", file, line, n.Label())
	return s.source.WriteSource(w, file.String(), line, context)
}

// rowSet is a set of scopes kept as one bitset per metric store, indexed
// by the scope's row. Every scope a view shows is a row of a store — the
// CCT's, the Flat View's, the Callers View roots' or one Callers View
// subtrie's — so membership is a
// bit, not a hashed pointer, and rows of two stores sit in two bitsets and
// never alias. The set remembers the store it last looked up, so a walk
// that stays in one store (the whole CCT, one Callers subtrie) does no map
// lookup. The zero value is the empty set.
type rowSet struct {
	bits map[*metric.Store][]uint64
	st   *metric.Store // the store last looked up
	cur  []uint64      // its bitset, nil while it has none
}

// use makes st the current store.
func (rs *rowSet) use(st *metric.Store) {
	if st != rs.st {
		rs.st, rs.cur = st, rs.bits[st]
	}
}

// has reports whether n is in the set.
func (rs *rowSet) has(n *core.Node) bool {
	rs.use(n.Incl.Store())
	r := uint32(n.Incl.Row())
	w := int(r >> 6)
	return w < len(rs.cur) && rs.cur[w]&(1<<(r&63)) != 0
}

// set adds n to the set, or removes it.
func (rs *rowSet) set(n *core.Node, on bool) {
	st := n.Incl.Store()
	rs.use(st)
	r := uint32(n.Incl.Row())
	w := int(r >> 6)
	if w >= len(rs.cur) {
		if !on {
			return
		}
		// Size the bitset for every row the store has now; a lazily built
		// Flat View's store grows as its rows below procedures come, and
		// its bitset with it.
		bits := make([]uint64, max(w+1, (st.NumRows()+63)/64))
		copy(bits, rs.cur)
		if rs.bits == nil {
			rs.bits = map[*metric.Store][]uint64{}
		}
		rs.bits[st], rs.cur = bits, bits
	}
	if on {
		rs.cur[w] |= 1 << (r & 63)
	} else {
		rs.cur[w] &^= 1 << (r & 63)
	}
}

// setTree adds n and every scope under it.
func (rs *rowSet) setTree(n *core.Node) {
	core.Walk(n, func(x *core.Node) bool {
		rs.set(x, true)
		return true
	})
}

// clear empties the set.
func (rs *rowSet) clear() { *rs = rowSet{} }
