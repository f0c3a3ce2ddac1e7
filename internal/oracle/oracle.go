// Package oracle states the paper's presentation rules once, for tests to
// check the system against: Equations 1 and 2 over the calling context tree
// (Section IV-A, with DESIGN.md §4.2's rule for loops and inlined code),
// Equation 3 (Section V-C), the Flat View (Figure 2c, DESIGN.md §4.4) and
// the Callers View (Figure 2b), both under the exposed-instance rule of
// Section IV-B, and derived cells (Section V-D).
//
// Each rule is plain recursion over the tree's paths. A row is found by the
// path of keys that leads to it, made where that path first appears, and
// holds its cells as plain slices by registry column: no store, row id or
// interning is involved, and nothing is fast. Every cell receives its
// addends in the tree's preorder, the order the views add them in (DESIGN.md
// §4.4a), so a test compares bits, not tolerances. Only tests import this
// package; `make vet` fails when any other code does.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/intern"
	"repro/internal/metric"
)

// Row is one row of a view as the rules give it.
type Row struct {
	core.Key
	NoSource bool
	CallFile intern.Sym
	CallLine int
	// Incl and Excl are the row's cells, by registry column.
	Incl, Excl []float64
	// Children are the rows below, in the order they first appear.
	Children []*Row
}

// View is what the rules give for one view of a tree.
type View struct {
	Roots []*Row

	reg    *metric.Registry
	rows   map[edge]*Row // every row, by its parent and its key: by its path
	all    []*Row        // every row, in the order it first appears
	active map[*Row]int  // per row, the scopes on the walk's path mapped into it
}

type edge struct {
	parent *Row
	key    core.Key
}

func newView(reg *metric.Registry) *View {
	return &View{reg: reg, rows: map[edge]*Row{}, active: map[*Row]int{}}
}

// row returns the row of key k below parent, a top row when parent is nil,
// and whether this call made it.
func (v *View) row(parent *Row, k core.Key) (*Row, bool) {
	if r := v.rows[edge{parent, k}]; r != nil {
		return r, false
	}
	r := &Row{Key: k, Incl: make([]float64, v.reg.Len()), Excl: make([]float64, v.reg.Len())}
	v.rows[edge{parent, k}] = r
	v.all = append(v.all, r)
	if parent == nil {
		v.Roots = append(v.Roots, r)
	} else {
		parent.Children = append(parent.Children, r)
	}
	return r, true
}

// enter counts a scope into r and reports whether the scope is exposed with
// respect to r: no scope above it on the walk's path maps into r.
func (v *View) enter(r *Row) bool {
	v.active[r]++
	return v.active[r] == 1
}

func (v *View) leave(rows []*Row) {
	for _, r := range rows {
		v.active[r]--
	}
}

// cells reads one plane of a scope of the tree by registry column.
func (v *View) cells(x *metric.View) []float64 {
	c := make([]float64, v.reg.Len())
	for id := range c {
		c[id] = x.Get(id)
	}
	return c
}

// sum adds src into dst. Derived cells are summed too, and derive replaces
// them.
func sum(dst, src []float64) {
	for id, x := range src {
		dst[id] += x
	}
}

// derive sets every derived cell of every row to its formula over the row's
// own cells, in registry order, so a formula reads the formulas before it.
func (v *View) derive() *View {
	for _, d := range v.reg.Columns() {
		if d.Kind != metric.Derived {
			continue
		}
		e, err := d.Expr()
		if err != nil {
			panic(err)
		}
		for _, r := range v.all {
			for _, cells := range [][]float64{r.Incl, r.Excl} {
				x, err := e.Eval(metric.EnvFunc(func(id int) float64 { return cells[id] }))
				if err != nil {
					panic(err)
				}
				if x == 0 {
					x = 0 // a cell is never -0
				}
				cells[d.ID] = x
			}
		}
	}
	return v
}

// CCT is the Calling Context View (Figure 2a): one top row, the tree's root,
// and below it a row per scope. A raw column's inclusive cell is Equation
// 2, Base summed over the subtree. Its exclusive cell is Equation 1: for a
// frame, Base summed over the frame's scopes up to the next frame; for a
// loop or inlined body, its own Base and its child statements'; for the
// root, nothing; for any other scope, its own Base. Summary and computed
// cells are what the tree stores.
func CCT(t *core.Tree) *View {
	v := newView(t.Reg)
	var visit func(n *core.Node, r *Row) (local []float64)
	visit = func(n *core.Node, r *Row) []float64 {
		r.NoSource, r.CallFile, r.CallLine = n.NoSource, n.CallFile, n.CallLine
		base := v.cells(&n.Base)
		local := slices.Clone(base)
		copy(r.Incl, base)
		for _, c := range n.Children {
			cr, _ := v.row(r, c.Key)
			cl := visit(c, cr)
			sum(r.Incl, cr.Incl)
			if c.Kind != core.KindFrame {
				sum(local, cl)
			}
		}
		switch n.Kind {
		case core.KindFrame:
			copy(r.Excl, local)
		case core.KindLoop, core.KindAlien:
			copy(r.Excl, base)
			for _, c := range n.Children {
				if c.Kind == core.KindStmt {
					sum(r.Excl, v.cells(&c.Base))
				}
			}
		case core.KindRoot:
		default:
			copy(r.Excl, base)
		}
		for _, d := range v.reg.Columns() {
			if d.Kind == metric.Summary || d.Kind == metric.Computed {
				r.Incl[d.ID], r.Excl[d.ID] = n.Incl.Get(d.ID), n.Excl.Get(d.ID)
			}
		}
		return local
	}
	root, _ := v.row(nil, t.Root.Key)
	visit(t.Root, root)
	return v.derive()
}

// HotPath is Equation 3 (Section V-C) over the tree's inclusive cells of
// column col: start, followed by the hot path of start's first child of
// greatest cost if that child holds at least t of start's cost (t = 0.5,
// the paper's default, when t <= 0) and start's cost is positive.
func HotPath(start *core.Node, col int, t float64) []*core.Node {
	return hotPath(start, func(n *core.Node) []*core.Node { return n.Children }, func(n *core.Node) float64 { return n.Incl.Get(col) }, t)
}

// hotPath is HotPath over any rows, given their children and inclusive
// cost.
func hotPath[T any](start T, children func(T) []T, cost func(T) float64, t float64) []T {
	if t <= 0 {
		t = 0.5
	}
	var best T
	kids := children(start)
	for i, c := range kids {
		if i == 0 || cost(c) > cost(best) {
			best = c
		}
	}
	if x := cost(start); len(kids) == 0 || x <= 0 || cost(best) < t*x {
		return []T{start}
	}
	return append([]T{start}, hotPath(best, children, cost, t)...)
}

// Flat is the Flat View (Figure 2c, DESIGN.md §4.4). A frame maps to its
// home, the module, file and procedure rows of its procedure, and to a
// call-site row in its caller's innermost row; a loop, inlined body or
// statement to a row below its enclosing frame's procedure row, nested as
// in the tree, and without a frame above it to the home of a frame that
// names nothing, without source. A scope maps into every row on the path to
// its own. Every row's inclusive cell sums the scopes exposed with respect
// to it. Exclusive cells: a procedure row sums its exposed frames'; a loop,
// inlined or statement row every scope's; a call-site row the static-rule
// exclusive (the frame's own Base and its child statements') of the frames
// exposed with respect to it; a file or module row its children's.
func Flat(t *core.Tree) *View {
	v := newView(t.Reg)
	home := func(mod, file, name intern.Sym, line int, noSource bool) []*Row {
		lm, _ := v.row(nil, core.Key{Kind: core.KindLM, Name: mod})
		f, _ := v.row(lm, core.Key{Kind: core.KindFile, Name: file})
		f.NoSource = file == 0
		p, _ := v.row(f, core.Key{Kind: core.KindProc, Name: name, File: file, Line: line})
		p.NoSource = noSource
		return []*Row{lm, f, p}
	}
	// ctx is the path of rows the scope's parent maps into.
	var visit func(n *core.Node, ctx []*Row)
	visit = func(n *core.Node, ctx []*Row) {
		var site *Row
		switch n.Kind {
		case core.KindFrame:
			caller := ctx
			ctx = home(n.Mod, n.File, n.Name, n.Line, n.NoSource)
			if len(caller) > 0 {
				site, _ = v.row(caller[len(caller)-1], core.Key{Kind: core.KindCallSite, Name: n.Name, File: n.CallFile, Line: n.CallLine, ID: n.ID})
				site.NoSource = n.NoSource
			}
		case core.KindLoop, core.KindAlien, core.KindStmt:
			if len(ctx) == 0 {
				ctx = home(0, 0, 0, 0, true)
			}
			k := n.Key
			if n.Kind != core.KindAlien {
				k.Name = 0
			}
			if n.Kind == core.KindStmt {
				k.ID = 0
			}
			r, _ := v.row(ctx[len(ctx)-1], k)
			r.NoSource = n.NoSource
			if r.CallLine == 0 {
				r.CallLine, r.CallFile = n.CallLine, n.CallFile
			}
			ctx = append(slices.Clip(ctx), r)
		}
		var entered []*Row
		if n.Kind != core.KindRoot && len(ctx) > 0 {
			incl, excl := v.cells(&n.Incl), v.cells(&n.Excl)
			exposed := false
			for _, r := range ctx {
				if exposed = v.enter(r); exposed {
					sum(r.Incl, incl)
				}
			}
			if exposed || n.Kind != core.KindFrame {
				sum(ctx[len(ctx)-1].Excl, excl)
			}
			entered = ctx
			if site != nil {
				entered = append(slices.Clip(ctx), site)
				if v.enter(site) {
					sum(site.Incl, incl)
					static := v.cells(&n.Base)
					for _, c := range n.Children {
						if c.Kind == core.KindStmt {
							sum(static, v.cells(&c.Base))
						}
					}
					sum(site.Excl, static)
				}
			}
		}
		for _, c := range n.Children {
			visit(c, ctx)
		}
		v.leave(entered)
	}
	visit(t.Root, nil)
	for _, lm := range v.Roots {
		for _, f := range lm.Children {
			for _, p := range f.Children {
				sum(f.Excl, p.Excl)
			}
			sum(lm.Excl, f.Excl)
		}
	}
	return v.derive()
}

// Callers is the Callers View (Figure 2b) with every top row expanded: a top
// row per procedure, ordered by name, file and line, and below it the
// chains of its callers, innermost first, one row per caller procedure. A
// frame maps into its procedure's top row and into the row of each of its
// chain's prefixes. Every row sums the inclusive and exclusive cells of the
// frames exposed with respect to it.
func Callers(t *core.Tree) *View {
	v := newView(t.Reg)
	proc := func(n *core.Node) core.Key {
		return core.Key{Kind: core.KindProc, Name: n.Name, File: n.File, Line: n.Line}
	}
	var frames []*core.Node // the frames on the walk's path, outermost first
	var visit func(n *core.Node)
	visit = func(n *core.Node) {
		var entered []*Row
		if n.Kind == core.KindFrame {
			incl, excl := v.cells(&n.Incl), v.cells(&n.Excl)
			r, made := v.row(nil, proc(n))
			if made {
				r.NoSource = n.NoSource
			}
			for i, callee := len(frames), n; ; i-- {
				entered = append(entered, r)
				if v.enter(r) {
					sum(r.Incl, incl)
					sum(r.Excl, excl)
				}
				if i == 0 {
					break
				}
				caller := frames[i-1]
				r, _ = v.row(r, proc(caller))
				r.NoSource = caller.NoSource
				if r.CallLine == 0 {
					r.CallLine, r.CallFile = callee.CallLine, callee.CallFile
				}
				callee = caller
			}
			frames = append(frames, n)
		}
		for _, c := range n.Children {
			visit(c)
		}
		if n.Kind == core.KindFrame {
			frames = frames[:len(frames)-1]
		}
		v.leave(entered)
	}
	visit(t.Root)
	slices.SortFunc(v.Roots, func(a, b *Row) int {
		return cmp.Or(strings.Compare(a.Name.String(), b.Name.String()), strings.Compare(a.File.String(), b.File.String()), cmp.Compare(a.Line, b.Line))
	})
	return v.derive()
}

// Check reports the first difference between v and the rows under roots, a
// view the system built, down to depth levels (every level when depth is
// 0): rows and their order, keys, NoSource, call sites, and the bits of
// every cell of both planes (any NaN matches any NaN). No store or row id
// is compared.
func (v *View) Check(roots []*core.Node, depth int) error {
	return v.check("", roots, v.Roots, depth)
}

func (v *View) check(at string, got []*core.Node, want []*Row, depth int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", at, len(got), len(want))
	}
	for i, g := range got {
		w, here := want[i], at+"/"+g.Label()
		if g.Key != w.Key || g.NoSource != w.NoSource || g.CallFile != w.CallFile || g.CallLine != w.CallLine {
			return fmt.Errorf("%s: row {%+v nosrc=%v call=%v:%d}, want {%+v nosrc=%v call=%v:%d}", here,
				g.Key, g.NoSource, g.CallFile, g.CallLine, w.Key, w.NoSource, w.CallFile, w.CallLine)
		}
		for _, d := range v.reg.Columns() {
			for _, c := range [...]struct {
				plane     string
				got, want float64
			}{{"inclusive", g.Incl.Get(d.ID), w.Incl[d.ID]}, {"exclusive", g.Excl.Get(d.ID), w.Excl[d.ID]}} {
				if math.Float64bits(c.got) != math.Float64bits(c.want) && !(math.IsNaN(c.got) && math.IsNaN(c.want)) {
					return fmt.Errorf("%s: %s %s = %v, want %v", here, c.plane, d.Name, c.got, c.want)
				}
			}
		}
		if depth != 1 {
			if err := v.check(here, g.Children, w.Children, depth-1); err != nil {
				return err
			}
		}
	}
	return nil
}
