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
	// NoSort preserves the existing child order.
	NoSort bool
	// MaxDepth bounds the rendered depth (0 = unlimited).
	MaxDepth int
	// TopN bounds children shown per scope, eliding the rest with a
	// summary line (0 = all).
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

// Render writes the forest as a tree table.
func Render(w io.Writer, roots []*core.Node, reg *metric.Registry, opt Options) error {
	r := newRenderer(w, reg, opt)
	if err := r.header(); err != nil {
		return err
	}
	for _, s := range r.ordered(roots) {
		if err := r.node(s, 0); err != nil {
			return err
		}
	}
	return nil
}

// RenderTree renders a CCT from its root's children with percent
// denominators taken from the root (the Calling Context View).
func RenderTree(w io.Writer, t *core.Tree, opt Options) error {
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	return Render(w, t.Root.Children, t.Reg, opt)
}

// RenderCallers expands every caller subtrie (core.CallersView.ExpandAll)
// and renders a Callers View. totals should come from the originating tree.
func RenderCallers(w io.Writer, v *core.CallersView, t *core.Tree, opt Options) error {
	if err := v.ExpandAll(); err != nil {
		return err
	}
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	return Render(w, v.Roots, v.Reg, opt)
}

// RenderFlat renders a Flat View.
func RenderFlat(w io.Writer, v *core.FlatView, t *core.Tree, opt Options) error {
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	return Render(w, v.Roots, v.Reg, opt)
}

const (
	cellWidth  = 17 // "1.25e+04  41.4%"
	labelWidth = 44
	blanks     = "                                            " // labelWidth spaces
)

// Row is one visible line of a view: a scope at a display depth. The
// interactive session (internal/engine) computes visibility itself —
// expansion state, zooming, flattening — and hands rows here for
// formatting.
type Row struct {
	Node *core.Node
	// Depth is the indentation level.
	Depth int
	// HasHidden marks scopes whose children are currently collapsed;
	// rendered with a '+' expander like a closed tree node.
	HasHidden bool
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

// ordered returns ns in presentation order: a sorted copy, or ns itself
// when there is nothing to reorder.
func (r *renderer) ordered(ns []*core.Node) []*core.Node {
	if r.opt.NoSort || len(ns) < 2 {
		return ns
	}
	ns = append([]*core.Node(nil), ns...)
	core.SortScopes(ns, r.opt.Sort)
	return ns
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

func (r *renderer) node(n *core.Node, depth int) error {
	if r.opt.MaxDepth > 0 && depth >= r.opt.MaxDepth {
		return nil
	}
	if err := r.line(n, depth, 0); err != nil {
		return err
	}
	kids := r.ordered(n.Children)
	shown := kids
	if r.opt.TopN > 0 && len(kids) > r.opt.TopN {
		shown = kids[:r.opt.TopN]
	}
	for _, c := range shown {
		if err := r.node(c, depth+1); err != nil {
			return err
		}
	}
	if len(shown) < len(kids) && (r.opt.MaxDepth == 0 || depth+1 < r.opt.MaxDepth) {
		b := append(indent(append(r.buf, ' '), depth+1), "... ("...)
		r.buf = append(strconv.AppendInt(b, int64(len(kids)-len(shown)), 10), " more)\n"...)
		return r.flush()
	}
	return nil
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
