// Package render is the presentation layer standing in for hpcviewer's
// Eclipse GUI: a deterministic tree-tabular renderer over the views of
// internal/core. It implements the presentation principles of Sections V
// and VII that are testable in text form:
//
//   - navigation pane plus metric pane, one scope per line, with call site
//     and callee fused on a single line;
//   - every sibling list sorted by the selected (possibly derived) metric;
//   - scientific notation with a percent-of-total annotation ("1.25e+04
//     41.4%") instead of "naively long and painful numbers";
//   - blank cells for zero values;
//   - sparse presentation: scopes without data never appear (they are
//     never created — see internal/metric's sparse vectors);
//   - depth and top-N truncation with explicit elision markers, and
//     hot-path highlighting.
//
// What a view shows is decided once, by Walk; the styles — numbered
// (RenderRows), batch (RenderLines) and HTML (RenderHTML) — only format
// the rows it gives.
package render

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/metric"
)

// Column selects one metric column and flavor for the metric pane.
type Column struct {
	// MetricID is the registry column.
	MetricID int
	// Inclusive selects the inclusive flavor; otherwise exclusive.
	Inclusive bool
}

// Options controls rendering.
type Options struct {
	// Columns lists the metric pane's columns; nil renders every
	// registry column as an (inclusive, exclusive) pair.
	Columns []Column
	// Sort orders each sibling list; the zero value sorts by column 0
	// inclusive, descending — hpcviewer's default.
	Sort core.SortSpec
	// MaxDepth bounds the rendered depth (0 = unlimited).
	MaxDepth int
	// TopN bounds every sibling list, the top level's included, eliding
	// the rest with a summary line (0 = all).
	TopN int
	// Totals supplies the percent denominators per metric column; if
	// nil, percent annotations are omitted. It is read once per column
	// per render.
	Totals func(metricID int) float64
	// Highlight marks scopes (e.g. a hot path) with a leading marker.
	Highlight map[*core.Node]bool
	// Slab, when non-nil, supplies the slab a column's cells are read from
	// for the scopes of one store (indexed by the scope's row, rows past
	// its end blank) instead of st.ColRead. Sessions overlaying private
	// derived columns on a shared database route reads through it; for
	// columns resident in st it must return exactly st.ColRead's slab,
	// keeping output byte-identical. It is asked once per column whenever
	// the rendered scopes move to another store, not once per cell.
	Slab func(st *metric.Store, metricID int, inclusive bool) []float64
}

// Render writes the forest as batch hpcviewer prints a view (RenderLines):
// every scope open, each sibling list sorted by opt.Sort and cut by
// opt.TopN and opt.MaxDepth.
func Render(w io.Writer, roots []*core.Node, reg *metric.Registry, opt Options) error {
	return RenderLines(w, forest(roots, opt), reg, opt)
}

// RenderTree renders a CCT from its root's children with percent
// denominators taken from the root (the Calling Context View).
func RenderTree(w io.Writer, t *core.Tree, opt Options) error {
	return Render(w, t.Root.Children, t.Reg, totals(opt, t))
}

// RenderCallers expands every caller subtrie (core.CallersView.ExpandAll)
// and renders a Callers View. totals should come from the originating tree.
func RenderCallers(w io.Writer, v *core.CallersView, t *core.Tree, opt Options) error {
	if err := v.ExpandAll(); err != nil {
		return err
	}
	return Render(w, v.Roots, v.Reg, totals(opt, t))
}

// RenderFlat renders a Flat View.
func RenderFlat(w io.Writer, v *core.FlatView, t *core.Tree, opt Options) error {
	return Render(w, v.Roots, v.Reg, totals(opt, t))
}

// totals defaults opt's percent denominators to t's root.
func totals(opt Options, t *core.Tree) Options {
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	return opt
}

// forest walks an in-memory forest under opt: every scope open, each
// sibling list sorted by opt.Sort in a copy.
func forest(roots []*core.Node, opt Options) RowSource {
	return func(emit func(Row) error) error {
		return Walk(roots, sorted(opt.Sort), opt.TopN, opt.MaxDepth, emit)
	}
}

type sorted core.SortSpec

func (p sorted) Order(ns []*core.Node) []*core.Node {
	if len(ns) > 1 {
		ns = append([]*core.Node(nil), ns...)
		core.SortScopes(ns, core.SortSpec(p))
	}
	return ns
}

func (sorted) Expanded(*core.Node) (open, unread bool) { return true, false }

const (
	cellWidth  = 17 // "1.25e+04  41.4%"
	labelWidth = 44
	blanks     = "                                            " // labelWidth spaces
)

// Row is one visible line of a view: a scope at a display depth, as Walk
// gives it.
type Row struct {
	Node *core.Node
	// Depth is the indentation level.
	Depth int
	// HasHidden marks scopes whose children are currently collapsed;
	// rendered with a '+' expander like a closed tree node.
	HasHidden bool
	// Cut counts the siblings after this row that the top-N cut hid; the
	// batch and HTML styles say so where the rows below this one end.
	Cut int32
}

// A Presenter answers the row walk's two questions about a view.
type Presenter interface {
	// Order returns a sibling list in presentation order, which the walk
	// may re-slice but neither reorders nor keeps.
	Order(siblings []*core.Node) []*core.Node
	// Expanded reports whether n shows its children, depth bound aside;
	// unread marks a scope shown with a '+' and never read below.
	Expanded(n *core.Node) (open, unread bool)
}

// Walk calls emit with each visible row of the forest roots, in order: the
// one visibility rule of every view and style. Each sibling list, the top
// level's included, is put in p's order and cut to its first topN scopes
// (0 = all), the last one shown counting in Cut what the cut hid; a scope
// p opens shows its children unless they would lie maxDepth levels down
// (0 = unlimited); a scope with rows below it not shown has HasHidden.
func Walk(roots []*core.Node, p Presenter, topN, maxDepth int, emit func(Row) error) error {
	w := walk{p: p, topN: topN, maxDepth: maxDepth}
	return w.add(roots, 0, emit)
}

// A RowSource calls emit with each row of a view in order, as Walk does.
type RowSource func(emit func(Row) error) error

// walk is the state of one Walk; emit goes down the recursion as an
// argument, so a caller's emit closure can stay on its stack.
type walk struct {
	p              Presenter
	topN, maxDepth int
}

func (w *walk) add(ns []*core.Node, depth int, emit func(Row) error) error {
	ns = w.p.Order(ns)
	var cut int32
	if w.topN > 0 && len(ns) > w.topN {
		ns, cut = ns[:w.topN], int32(len(ns)-w.topN)
	}
	for i, n := range ns {
		row := Row{Node: n, Depth: depth}
		if i == len(ns)-1 {
			row.Cut = cut
		}
		open, unread := w.p.Expanded(n)
		open = open && !unread && (w.maxDepth == 0 || depth+1 < w.maxDepth)
		row.HasHidden = unread || !open && n.HasRowsBelow()
		if err := emit(row); err != nil {
			return err
		}
		if open {
			if err := w.add(n.Children, depth+1, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// nest runs a style over the rows of a walk: open for each row, and close
// for each once the rows below it are done, the deepest first.
func nest(rows RowSource, open, close func(Row) error) error {
	var stack []Row
	leave := func(depth int) error {
		for ; len(stack) > 0 && stack[len(stack)-1].Depth >= depth; stack = stack[:len(stack)-1] {
			if err := close(stack[len(stack)-1]); err != nil {
				return err
			}
		}
		return nil
	}
	err := rows(func(row Row) error {
		if err := leave(row.Depth); err != nil {
			return err
		}
		stack = append(stack, row)
		return open(row)
	})
	if err != nil {
		return err
	}
	return leave(0)
}

// RenderLines writes a header and the rows as batch hpcviewer prints them:
// no row numbers or expanders, and "... (N more)" where a cut row's
// subtree ends, indented as the cut list.
func RenderLines(w io.Writer, rows RowSource, reg *metric.Registry, opt Options) error {
	r := newRenderer(w, reg, opt)
	if err := r.header(); err != nil {
		return err
	}
	return nest(rows, func(row Row) error {
		return r.line(row.Node, row.Depth, 0)
	}, func(row Row) error {
		if row.Cut == 0 {
			return nil
		}
		b := append(indent(append(r.buf, ' '), row.Depth), "... ("...)
		r.buf = append(strconv.AppendInt(b, int64(row.Cut), 10), " more)\n"...)
		return r.flush()
	})
}

// RenderRows writes a header and the given rows without any recursion,
// sorting or truncation of its own. It allocates a constant number of
// objects however many rows there are.
func RenderRows(w io.Writer, rows []Row, reg *metric.Registry, opt Options) error {
	r := newRenderer(w, reg, opt)
	// A sink that can grow (bytes.Buffer, strings.Builder: every /v1/exec
	// response) is told the size of the table once. Left to double its way
	// there it allocates, clears and copies twice the output over again.
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow((len(rows) + 2) * (labelWidth + (cellWidth+1)*len(r.cols) + 1))
	}
	if err := r.header(); err != nil {
		return err
	}
	for i, row := range rows {
		if err := r.row(i, row); err != nil {
			return err
		}
	}
	return nil
}

// column is one metric pane column resolved for the render in progress.
type column struct {
	Column
	name string
	// total is the percent denominator; 0 omits the annotation.
	total float64
	// slab holds the column's cells for the scopes of renderer.store.
	slab []float64
}

// renderer is the line formatter behind every text and HTML view: each
// line is appended to one reused buffer — label, rune-counted padding,
// cells — and written with a single Write, with no fmt verb and no
// per-line allocation on the way.
type renderer struct {
	w    io.Writer
	opt  Options
	cols []column
	// store is the store the column slabs were last resolved for.
	store *metric.Store
	buf   []byte
}

func newRenderer(w io.Writer, reg *metric.Registry, opt Options) *renderer {
	sel := opt.Columns
	if sel == nil {
		sel = make([]Column, 0, 2*reg.Len())
		for _, d := range reg.Columns() {
			sel = append(sel, Column{MetricID: d.ID, Inclusive: true}, Column{MetricID: d.ID, Inclusive: false})
		}
	}
	if opt.Slab == nil {
		opt.Slab = storeSlab
	}
	r := &renderer{w: w, opt: opt, cols: make([]column, len(sel)), buf: make([]byte, 0, 512)}
	for i, c := range sel {
		r.cols[i] = column{Column: c, name: "?"}
		if d := reg.ByID(c.MetricID); d != nil {
			r.cols[i].name = d.Name
			if d.ShowPercent && opt.Totals != nil {
				r.cols[i].total = opt.Totals(c.MetricID)
			}
		}
	}
	return r
}

// storeSlab is the default Options.Slab: the store's own column.
func storeSlab(st *metric.Store, metricID int, inclusive bool) []float64 {
	if inclusive {
		return st.ColRead(metric.PlaneIncl, metricID)
	}
	return st.ColRead(metric.PlaneExcl, metricID)
}

// flush writes the buffered bytes and empties the buffer.
func (r *renderer) flush() error {
	_, err := r.w.Write(r.buf)
	r.buf = r.buf[:0]
	return err
}

// rowOf returns scope n's row in the column slabs. The slabs are resolved
// again only when n lives in another store than the scope before it (a
// Callers View's root rows share one store, and each subtrie has its own).
func (r *renderer) rowOf(n *core.Node) int {
	if st := n.Incl.Store(); st != r.store {
		r.store = st
		for i := range r.cols {
			c := &r.cols[i]
			c.slab = r.opt.Slab(st, c.MetricID, c.Inclusive)
		}
	}
	return int(n.Incl.Row())
}

// at reads the column's cell at row; rows past the slab's end are zero.
func (c *column) at(row int) float64 {
	if row < len(c.slab) {
		return c.slab[row]
	}
	return 0
}

// row buffers one numbered line (the interactive session addresses scopes
// by these numbers).
func (r *renderer) row(idx int, row Row) error {
	b := r.buf
	switch { // %3d
	case idx < 10:
		b = append(b, "  "...)
	case idx < 100:
		b = append(b, ' ')
	}
	b = append(strconv.AppendInt(b, int64(idx), 10), ' ')
	expander := byte(' ')
	if row.HasHidden {
		expander = '+'
	}
	r.buf = b
	return r.line(row.Node, row.Depth, expander)
}

// line appends mark, indentation, the optional expander, the fused
// call-site glyph, the label and the metric cells of n after whatever the
// caller buffered, and writes the line without its trailing blanks.
func (r *renderer) line(n *core.Node, depth int, expander byte) error {
	b := r.buf
	if r.opt.Highlight[n] {
		b = append(b, '*')
	} else {
		b = append(b, ' ')
	}
	b = indent(b, depth)
	if expander != 0 {
		b = append(b, expander)
	}
	// Dynamic rows carry the call-site marker, echoing hpcviewer's "box
	// with a right-facing arrow" icon (Section V-B).
	if n.Kind == core.KindCallSite || n.Kind == core.KindFrame && n.CallLine > 0 {
		b = append(b, "=> "...)
	}
	ascii := len(b) // what precedes the label is ASCII
	b = n.AppendLabel(b)
	if binaryOnly(n) {
		b = append(b, " [bin]"...)
	}
	b, width := cut(b, 0, ascii, labelWidth)
	// Blanks are owed, not written, until text follows them: a line ends
	// at its last non-zero cell, and zero cells stay blank (Section V-A).
	owed := labelWidth - width
	row := r.rowOf(n)
	for i := range r.cols {
		c := &r.cols[i]
		v := c.at(row)
		if v == 0 {
			owed += 1 + cellWidth
			continue
		}
		b = appendCell(b, owed, v, c.total)
		owed = 0
	}
	r.buf = append(bytes.TrimRight(b, " "), '\n')
	return r.flush()
}

func binaryOnly(n *core.Node) bool {
	return n.NoSource && (n.Kind == core.KindFrame || n.Kind == core.KindProc || n.Kind == core.KindCallSite)
}

func indent(b []byte, depth int) []byte { return appendBlanks(b, 2*depth) }

// appendCell appends owed blanks and one metric column: a blank, then v
// with its percent of total (when total is not zero) right-aligned in
// cellWidth. Cells are ASCII, so a cell's length is its width: the text is
// formatted on the stack and copied in behind its blanks, and nothing is
// shifted.
func appendCell(b []byte, owed int, v, total float64) []byte {
	var buf [cellWidth + 8]byte
	t := AppendValue(buf[:0], v)
	if total != 0 {
		var pbuf [8]byte
		pct := appendFixed(pbuf[:0], 100*v/total, 1) // %5.1f
		t = append(t, blanks[:max(1, 6-len(pct))]...)
		t = append(append(t, pct...), '%')
	}
	b = appendBlanks(b, owed+max(1, cellWidth+1-len(t)))
	return append(b, t...)
}

// appendBlanks appends n blanks.
func appendBlanks(b []byte, n int) []byte {
	for ; n > len(blanks); n -= len(blanks) {
		b = append(b, blanks...)
	}
	return append(b, blanks[:n]...)
}

func (r *renderer) header() error {
	b := pad(append(r.buf, "scope"...), 0, labelWidth, false)
	for _, c := range r.cols {
		b = append(b, ' ')
		start := len(b)
		b = append(append(b, c.name...), " (E)"...)
		if c.Inclusive {
			b[len(b)-2] = 'I'
		}
		b = pad(trunc(b, start, cellWidth), start, cellWidth, true)
	}
	b = append(b, '\n')
	for i := labelWidth + (cellWidth+1)*len(r.cols); i > 0; i-- {
		b = append(b, '-')
	}
	r.buf = append(b, '\n')
	return r.flush()
}

// FormatValue renders a metric value "with scientific notation with simple
// and intuitively readable format" (Section V-A).
func FormatValue(v float64) string { return string(AppendValue(nil, v)) }

// AppendValue appends FormatValue(v) to b: nothing for zero, %.2e outside
// [1e-2, 1e4), otherwise the integer or two decimals.
func AppendValue(b []byte, v float64) []byte {
	a := math.Abs(v)
	switch {
	case v == 0:
		return b
	case a >= 1e4 || a < 1e-2:
		return strconv.AppendFloat(b, v, 'e', 2, 64)
	case v == math.Trunc(v):
		return strconv.AppendInt(b, int64(v), 10)
	}
	return appendFixed(b, v, 2)
}

// appendFixed appends v with prec (1 or 2) decimals, byte for byte what
// strconv's 'f' format — and so fmt's %.1f and %.2f — produce. strconv
// has a shortcut for %e only: every %f goes through its multiprecision
// decimal, which made the percent annotation the most expensive part of a
// cell. Here the value is scaled by 10^prec and rounded in integer
// arithmetic. The scaled product is off from the exact one by at most
// 1e9 * 2^-53 ≈ 1.1e-7, so whenever its fraction is further than 1e-6
// from one half the rounding direction is certain; nearer a tie, and for
// values too large to scale (or NaN, ±Inf), strconv decides.
func appendFixed(b []byte, v float64, prec int) []byte {
	scale := uint64(10)
	if prec == 2 {
		scale = 100
	}
	s := math.Abs(v) * float64(scale)
	if !(s < 1e9) {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	i := int64(s) // below 1e9 the signed conversion truncates the same, in fewer instructions
	frac := s - float64(i)
	if math.Abs(frac-0.5) < 1e-6 {
		return strconv.AppendFloat(b, v, 'f', prec, 64)
	}
	n := uint64(i)
	if frac > 0.5 {
		n++
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	b = append(strconv.AppendUint(b, n/scale, 10), '.')
	if prec == 2 {
		b = append(b, byte('0'+n%100/10))
	}
	return append(b, byte('0'+n%10))
}

// trunc cuts b[start:] to at most width runes, the last three of them
// "..." when it had to cut. It never splits a rune: labels imported from
// pprof may hold any UTF-8.
func trunc(b []byte, start, width int) []byte {
	b, _ = cut(b, start, start, width)
	return b
}

// cut is trunc that also reports how many runes b[start:] holds after the
// cut, counted in one scan that decodes only non-ASCII bytes and starts at
// ascii: b[start:ascii] is known to be ASCII, a rune per byte.
func cut(b []byte, start, ascii, width int) ([]byte, int) {
	n := ascii - start
	if n > width {
		return append(b[:start+width-3], "..."...), width
	}
	end := start + min(n, width-3)
	for at := ascii; at < len(b); n++ {
		if n == width-3 {
			end = at
		}
		if n == width {
			return append(b[:end], "..."...), width
		}
		if b[at] < utf8.RuneSelf {
			at++
		} else {
			_, size := utf8.DecodeRune(b[at:])
			at += size
		}
	}
	return b, n
}

// pad extends b[start:] with blanks to width runes (as fmt's %*s and %-*s
// count them), in front of the text when right is set.
func pad(b []byte, start, width int, right bool) []byte {
	n := width - utf8.RuneCount(b[start:])
	if n <= 0 {
		return b
	}
	b = append(b, blanks[:n]...)
	if right {
		copy(b[start+n:], b[start:len(b)-n])
		copy(b[start:start+n], blanks)
	}
	return b
}
