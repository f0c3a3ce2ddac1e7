package render

import (
	"html"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/metric"
)

// RenderHTML writes the rows as a self-contained HTML document presenting
// a view the way hpcviewer's GUI does: a collapsible navigation pane fused
// with a metric pane, one <details> element per scope that shows rows
// below it, hot-path rows highlighted, zero cells blank. It needs no
// JavaScript and no external assets.
func RenderHTML(w io.Writer, title string, rows RowSource, reg *metric.Registry, opt Options) error {
	h := htmlRenderer{newRenderer(w, reg, opt)}
	if err := h.prologue(title); err != nil {
		return err
	}
	// A row shows rows below it when it has children and does not hide them.
	parent := func(row Row) bool { return !row.HasHidden && len(row.Node.Children) > 0 }
	err := nest(rows, func(row Row) error {
		n := row.Node
		hot := h.opt.Highlight[n]
		if !parent(row) {
			b := append(h.buf, `<div class="leaf`...)
			if hot {
				b = append(b, " hot"...)
			}
			h.buf = append(h.cells(h.label(append(b, `">`...), n), n), "</div>\n"...)
			return h.flush()
		}
		b := append(h.buf, "<details"...)
		if hot {
			b = append(b, ` class="hot"`...)
		}
		if hot || row.Depth == 0 {
			b = append(b, " open"...)
		}
		h.buf = append(h.cells(h.label(append(b, "><summary>"...), n), n), "</summary>\n"...)
		return h.flush()
	}, func(row Row) error {
		if parent(row) {
			h.buf = append(h.buf, "</details>\n"...)
		}
		if row.Cut > 0 {
			b := append(h.buf, `<div class="leaf pct">&hellip; (`...)
			h.buf = append(strconv.AppendInt(b, int64(row.Cut), 10), " more)</div>\n"...)
		}
		return h.flush()
	})
	if err != nil {
		return err
	}
	h.buf = append(h.buf, "</body></html>\n"...)
	return h.flush()
}

// htmlRenderer writes the same columns, cell values and sibling order as
// the text renderer it wraps, as markup.
type htmlRenderer struct{ *renderer }

const htmlStyle = `<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; font-size: 13px;
       background: #fdfdfd; color: #222; margin: 1.5em; }
h1 { font-size: 16px; }
details { margin-left: 1.2em; border-left: 1px dotted #ccc; padding-left: .3em; }
summary, .leaf { cursor: default; padding: 1px 0; white-space: nowrap; }
summary:hover { background: #eef; }
.leaf { margin-left: 1.2em; padding-left: 1.05em; border-left: 1px dotted #ccc; }
.hot { background: #fff0e0; }
.hot > summary, .leaf.hot { background: #ffe4c4; font-weight: bold; }
.m { display: inline-block; min-width: 9.5em; text-align: right; color: #346;
     margin-left: .6em; }
.pct { color: #888; font-size: 11px; }
.bin { color: #666; font-style: italic; }
.cs  { color: #863; }
.hdr { margin: .4em 0 .8em 0; color: #555; }
.hdr .m { font-weight: bold; color: #333; }
</style>`

func (h htmlRenderer) prologue(title string) error {
	t := html.EscapeString(title)
	b := append(h.buf, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>"...)
	b = append(append(append(b, t...), "</title>"...), htmlStyle...)
	b = append(append(append(b, "</head><body>\n<h1>"...), t...), "</h1>\n"...)
	// Column header line.
	b = append(b, `<div class="hdr">scope`...)
	for _, c := range h.cols {
		b = append(append(b, `<span class="m">`...), html.EscapeString(c.name)...)
		if c.Inclusive {
			b = append(b, " (I)</span>"...)
		} else {
			b = append(b, " (E)</span>"...)
		}
	}
	h.buf = append(b, "</div>\n"...)
	return h.flush()
}

func (h htmlRenderer) label(b []byte, n *core.Node) []byte {
	if n.Kind == core.KindCallSite || n.Kind == core.KindFrame && n.CallLine > 0 {
		b = append(b, `<span class="cs">&#8618;</span> `...)
	}
	b = append(b, html.EscapeString(n.Label())...)
	if binaryOnly(n) {
		b = append(b, ` <span class="bin">[bin]</span>`...)
	}
	return b
}

func (h htmlRenderer) cells(b []byte, n *core.Node) []byte {
	row := h.rowOf(n)
	for i := range h.cols {
		c := &h.cols[i]
		b = append(b, `<span class="m">`...)
		if v := c.at(row); v != 0 {
			b = AppendValue(b, v) // digits, sign, '.', 'e', "NaN", "Inf": nothing to escape
			if c.total != 0 {
				b = append(b, ` <span class="pct">`...)
				b = append(appendFixed(b, 100*v/c.total, 1), "%</span>"...)
			}
		}
		b = append(b, "</span>"...)
	}
	return b
}
