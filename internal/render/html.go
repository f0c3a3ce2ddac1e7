package render

import (
	"html"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/metric"
)

// RenderHTML writes a self-contained HTML document presenting a tree the
// way hpcviewer's GUI does: a collapsible navigation pane fused with a
// metric pane, one <details> element per scope, sorted by the selected
// metric, hot-path rows highlighted, zero cells blank. It needs no
// JavaScript and no external assets, so a database can be shared as a
// single file.
func RenderHTML(w io.Writer, title string, roots []*core.Node, reg *metric.Registry, opt Options) error {
	h := htmlRenderer{newRenderer(w, reg, opt)}
	if err := h.prologue(title); err != nil {
		return err
	}
	for _, s := range h.ordered(roots) {
		if err := h.node(s, 0); err != nil {
			return err
		}
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

func (h htmlRenderer) node(n *core.Node, depth int) error {
	if h.opt.MaxDepth > 0 && depth >= h.opt.MaxDepth {
		return nil
	}
	hot := h.opt.Highlight[n]
	kids := h.ordered(n.Children)
	shown := kids
	if h.opt.TopN > 0 && len(kids) > h.opt.TopN {
		shown = kids[:h.opt.TopN]
	}
	if len(shown) == 0 || h.opt.MaxDepth > 0 && depth+1 >= h.opt.MaxDepth {
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
	if hot || depth == 0 {
		b = append(b, " open"...)
	}
	h.buf = append(h.cells(h.label(append(b, "><summary>"...), n), n), "</summary>\n"...)
	if err := h.flush(); err != nil {
		return err
	}
	for _, c := range shown {
		if err := h.node(c, depth+1); err != nil {
			return err
		}
	}
	if len(shown) < len(kids) {
		b := append(h.buf, `<div class="leaf pct">&hellip; (`...)
		h.buf = append(strconv.AppendInt(b, int64(len(kids)-len(shown)), 10), " more)</div>\n"...)
	}
	h.buf = append(h.buf, "</details>\n"...)
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

// RenderHTMLReport writes all three views of a tree into one document,
// each under its own heading, with the hot path of metric hotMetric
// highlighted in the Calling Context View (pass a negative hotMetric to
// skip hot-path analysis).
func RenderHTMLReport(w io.Writer, t *core.Tree, title string, hotMetric int, opt Options) error {
	if opt.Totals == nil {
		opt.Totals = t.Total
	}
	if _, err := io.WriteString(w, "<!-- "+html.EscapeString(title)+": calling context / callers / flat -->\n"); err != nil {
		return err
	}
	ccOpt := opt
	if hotMetric >= 0 {
		path := core.HotPath(t.Root, hotMetric, core.DefaultHotPathThreshold)
		ccOpt.Highlight = map[*core.Node]bool{}
		for _, n := range path {
			ccOpt.Highlight[n] = true
		}
	}
	if err := RenderHTML(w, title+" — Calling Context View", t.Root.Children, t.Reg, ccOpt); err != nil {
		return err
	}
	cv := core.BuildCallersView(t)
	if err := cv.ExpandAll(); err != nil {
		return err
	}
	if err := RenderHTML(w, title+" — Callers View", cv.Roots, t.Reg, opt); err != nil {
		return err
	}
	fv := core.BuildFlatView(t)
	return RenderHTML(w, title+" — Flat View", fv.Roots, t.Reg, opt)
}
