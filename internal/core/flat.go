package core

import (
	"repro/internal/intern"
	"repro/internal/metric"
)

// The Flat View (Section III-C) correlates costs to the program's static
// structure: load module → file → procedure → loop/inlined code →
// statement, with dynamic call-site rows nested in their static context.
//
// Aggregation rules, validated against Figure 2c:
//
//   - Inclusive: a CCT node contributes its inclusive cost to a flat scope
//     s exactly when no CCT ancestor also maps into s's flat subtree (the
//     "exposed with respect to s" generalization of Section IV-B). That
//     yields gx = 9 (g1 + g3, skipping the nested g2) and file2 = 9 (g1 +
//     g3, skipping h which is nested under g's instances).
//
//   - Exclusive: procedure rows sum the *frame-rule* exclusive of exposed
//     instances (gx = 4); loop/alien/statement rows sum their instances'
//     exclusive (sample sets are disjoint, no exposure needed); file and
//     module rows sum their children (file2 = 8); dynamic call-site rows
//     report the callee's *static-rule* exclusive — direct child statements
//     only — which is why hy shows 0 (h's samples are nested in loops)
//     while fy shows 1.

// FlatView is the static view.
type FlatView struct {
	Reg *metric.Registry
	// Roots are the load modules.
	Roots []*Node
}

// exposure is Section IV-B's exposed-instance rule, once for both aggregating
// views: per aggregate row (a dense index), how many scopes on the walk path
// map into it. Only a scope that enters a row at zero contributes to it.
type exposure []int32

// enter counts one more scope into row and reports whether it is exposed.
func (e *exposure) enter(row int32) bool {
	for int(row) >= len(*e) {
		*e = append(*e, 0)
	}
	(*e)[row]++
	return (*e)[row] == 1
}

func (e exposure) exit(row int32) { e[row]-- }

// flatHome identifies a frame's (module, file, procedure) chain of flat scopes.
type flatHome struct {
	mod, file, name intern.Sym
	line            int
}

// flatAdd is one step of the plan: add source row src's cell to view row dst's.
type flatAdd struct{ src, dst int32 }

// flatBuilder is the state of one BuildFlatView call; nothing of it lives
// on the tree, so concurrent builds over one tree share only what they read.
type flatBuilder struct {
	root *Node
	// ctx is the context stack. The context of the scope being visited is
	// ctx[base:]: the home chain of its enclosing frame, then the flat scope
	// of every loop, inlined body and statement since — a path of the view.
	ctx    []*Node
	active exposure           // by view store row
	homes  map[flatHome]*Node // procedure row of every home seen
	// The plan, in visit order: inclusive to inclusive, exclusive to
	// exclusive, and per exposed call-site instance a run of static — the
	// call-site row, a count, and that many Base rows to sum first (the
	// frame's, then its direct statement children's, in child order).
	incl, excl []flatAdd
	static     []int32
	// src is the CCT's store; the sweep reads a scope's costs at its row.
	src *metric.Store
}

// BuildFlatView computes the Flat View of a tree: one walk that resolves
// every CCT scope to its flat scopes, then one sweep per metric column. Like
// BuildCallersView it only reads the tree, so concurrent builds are safe.
func BuildFlatView(t *Tree) *FlatView {
	t.EnsureComputed()
	// The view is built by this one goroutine; a private arena with its own
	// metric store packs its scopes into slabs like the CCT's, keeping the
	// no-cross-tree-aliasing invariant.
	arena := &nodeArena{store: metric.NewStore()}
	b := &flatBuilder{root: arena.alloc(), homes: map[flatHome]*Node{}, src: t.arena.store}
	b.root.Key = Key{Kind: KindRoot}
	b.root.arena = arena
	// A scope adds its exclusive cost once and its inclusive cost seldom
	// more than twice: the plan rarely regrows.
	b.incl = make([]flatAdd, 0, 2*b.src.NumRows())
	b.excl = make([]flatAdd, 0, b.src.NumRows())
	b.visit(t.Root, 0)
	b.sweep(arena.store)
	return &FlatView{Reg: t.Reg, Roots: b.root.Children}
}

// sweep executes the plan column by column into exact-size columns of the
// view's store. Each cell receives its additions in visit order, the order
// a scope-at-a-time build adds them in, so the sums are the same bits.
func (b *flatBuilder) sweep(to *metric.Store) {
	rows := to.NumRows()
	cols := max(b.src.NumCols(metric.PlaneBase), b.src.NumCols(metric.PlaneIncl), b.src.NumCols(metric.PlaneExcl))
	for c := 0; c < cols; c++ {
		if src := b.src.ColRead(metric.PlaneIncl, c); len(src) > 0 {
			incl := make([]float64, rows)
			for _, a := range b.incl {
				if int(a.src) < len(src) {
					incl[a.dst] += src[a.src]
				}
			}
			to.AdoptCol(metric.PlaneIncl, c, incl, false)
		}
		src, base := b.src.ColRead(metric.PlaneExcl, c), b.src.ColRead(metric.PlaneBase, c)
		if len(src)+len(base) == 0 {
			continue
		}
		excl := make([]float64, rows)
		for _, a := range b.excl {
			if int(a.src) < len(src) {
				excl[a.dst] += src[a.src]
			}
		}
		for run := b.static; len(run) > 0; {
			n := 2 + int(run[1])
			v := 0.0
			for _, r := range run[2:n] {
				if int(r) < len(base) {
					v += base[r]
				}
			}
			excl[run[0]] += v
			run = run[n:]
		}
		// Containers (files, modules) report the sum of their children's
		// exclusive costs (file2 = g's 4 + h's 4 = 8 in Figure 2c).
		for _, lm := range b.root.Children {
			ofFiles := 0.0
			for _, f := range lm.Children {
				ofProcs := 0.0
				for _, p := range f.Children {
					ofProcs += excl[p.Excl.Row()]
				}
				excl[f.Excl.Row()] = ofProcs
				ofFiles += ofProcs
			}
			excl[lm.Excl.Row()] = ofFiles
		}
		to.AdoptCol(metric.PlaneExcl, c, excl, false)
	}
}

// pushHome pushes the (module, file, procedure) chain of a frame's static
// home onto the context stack, creating it the first time the home is seen.
func (b *flatBuilder) pushHome(mod, file, name intern.Sym, line int, noSource bool) {
	k := flatHome{mod, file, name, line}
	proc := b.homes[k]
	if proc == nil {
		f := b.root.Child(Key{Kind: KindLM, Name: mod}, true).Child(Key{Kind: KindFile, Name: file}, true)
		f.NoSource = file == 0
		proc = f.Child(Key{Kind: KindProc, Name: name, File: file, Line: line}, true)
		b.homes[k] = proc
	}
	proc.NoSource = noSource
	b.ctx = append(b.ctx, proc.Parent.Parent, proc.Parent, proc)
}

// visit maps CCT scope n into the view, plans the additions of its costs to
// the rows it is exposed to, and walks its children in the context it leaves.
func (b *flatBuilder) visit(n *Node, base int) {
	top := len(b.ctx)
	var cs *Node // dynamic call-site row in the caller's static context
	switch n.Kind {
	case KindFrame:
		b.pushHome(n.Mod, n.File, n.Name, n.Line, n.NoSource)
		if top > base {
			cs = b.ctx[top-1].Child(Key{Kind: KindCallSite, Name: n.Name, File: n.CallFile, Line: n.CallLine, ID: n.ID}, true)
			cs.NoSource = n.NoSource
		}
		base = top // the frame's children see its home chain, nothing of the caller
	case KindLoop, KindAlien, KindStmt:
		if top == base { // no enclosing frame: the home of a frame that names nothing
			b.pushHome(0, 0, 0, 0, true)
		}
		k := n.Key
		switch n.Kind {
		case KindLoop:
			k.Name = 0
		case KindStmt:
			k.Name, k.ID = 0, 0
		}
		c := b.ctx[len(b.ctx)-1].Child(k, true)
		c.NoSource = n.NoSource
		if c.CallLine == 0 {
			c.CallLine = n.CallLine
			c.CallFile = n.CallFile
		}
		b.ctx = append(b.ctx, c)
	}
	if n.Kind != KindRoot {
		src := n.Base.Row()
		self, selfExposed := (*Node)(nil), false
		for _, self = range b.ctx[base:] {
			if selfExposed = b.active.enter(self.Incl.Row()); selfExposed {
				b.incl = append(b.incl, flatAdd{src, self.Incl.Row()})
			}
		}
		// Procedure rows take the frame-rule exclusive of exposed
		// instances; loop, inlined and statement rows every instance's.
		if selfExposed && n.Kind == KindFrame || n.Kind == KindLoop || n.Kind == KindAlien || n.Kind == KindStmt {
			b.excl = append(b.excl, flatAdd{src, self.Incl.Row()})
		}
		// Call-site rows take the static-rule exclusive: the callee's own
		// samples and its direct statement children's.
		if cs != nil && b.active.enter(cs.Incl.Row()) {
			b.incl = append(b.incl, flatAdd{src, cs.Incl.Row()})
			at := len(b.static)
			b.static = append(b.static, cs.Incl.Row(), 1, src)
			for _, c := range n.Children {
				if c.Kind == KindStmt {
					b.static = append(b.static, c.Base.Row())
					b.static[at+1]++
				}
			}
		}
	}
	for _, c := range n.Children {
		b.visit(c, base)
	}
	if n.Kind != KindRoot {
		for _, s := range b.ctx[base:] {
			b.active.exit(s.Incl.Row())
		}
		if cs != nil {
			b.active.exit(cs.Incl.Row())
		}
	}
	b.ctx = b.ctx[:top]
}
