package core

import (
	"fmt"

	"repro/internal/metric"
)

// ComputeMetrics performs the initialization step of Section IV-A: it
// computes presented exclusive costs per Equation 1 and inclusive costs per
// Equation 2 from the directly attributed Base values.
//
// Rules (Equation 1), using the paper's hybrid definition:
//   - dynamic scopes (frames): exclusive is the sum of Base over every
//     descendant reachable without crossing another frame — "sum every
//     descendant statement of x that is not across a call site";
//   - other static scopes (loops, inlined code): exclusive is the sum of
//     Base over direct statement children only, so a loop's exclusive
//     excludes its nested loops (Figure 2a: l1 = 0 while l2 = 4);
//   - statements keep their Base.
//
// Inclusive costs (Equation 2) are the bottom-up sums of Base, so a fused
// call-site/callee line reports "the cost of the callee and any routine it
// calls" (Section V-B).
//
// The computation runs column-at-a-time over the contiguous metric slabs:
// one postorder index is built per recomputation (child lists may have been
// re-sorted since) and each column is then a pair of linear sweeps.
// Per-parent accumulation follows child order — the addition sequence of a
// per-node recursion — and zero additions are bitwise no-ops (slabs never
// hold negative zero).
func (t *Tree) ComputeMetrics() {
	t.computeMu.Lock()
	defer t.computeMu.Unlock()
	t.recomputeMetrics()
}

// EnsureComputed computes presented metrics once; concurrent callers (e.g.
// several goroutines building views over one shared tree) serialize on the
// tree's compute lock and all but the first become no-ops.
func (t *Tree) EnsureComputed() {
	t.computeMu.Lock()
	defer t.computeMu.Unlock()
	if !t.computed {
		t.recomputeMetrics()
	}
}

// MarkComputed records that presented metrics are already final without
// running the Equation 1/2 sweeps. Loaders whose on-disk form stores the
// presented planes directly (the v3 mapped database bakes Base, inclusive
// and exclusive column slabs) call this so EnsureComputed does not
// overwrite — and copy-on-write — the loaded columns.
func (t *Tree) MarkComputed() {
	t.computeMu.Lock()
	t.computed = true
	t.computeMu.Unlock()
}

// Exclusive-rule classes, precomputed per postorder entry so the finalize
// sweep is a flat switch over dense arrays.
const (
	exBase      uint8 = iota // statements, view rows: exclusive = Base
	exFrame                  // frames: exclusive = frame-local sum
	exLoopAlien              // loops/inlined code: Base + direct stmt children
	exRoot                   // the invisible root: empty
)

// topoScratch is the flattened postorder index of a tree: children precede
// parents, and siblings appear in child-list order, so a linear pass that
// adds post[i] into parent[i] replays exactly the additions the recursive
// walk performed. Rebuilt on each recomputation (sorting reorders child
// lists) reusing slice capacity, so the steady state allocates nothing.
type topoScratch struct {
	post     []int32 // node rows in postorder
	parent   []int32 // parent row of post[i], -1 for the root
	addFL    []bool  // post[i] feeds its parent's frame-local sum (Kind != Frame)
	exKind   []uint8 // exclusive rule class for post[i]
	stmtLo   []int32 // exLoopAlien entries: range into stmtRows
	stmtHi   []int32
	stmtRows []int32 // rows of direct statement children, in child order
}

func (tp *topoScratch) reset() {
	tp.post = tp.post[:0]
	tp.parent = tp.parent[:0]
	tp.addFL = tp.addFL[:0]
	tp.exKind = tp.exKind[:0]
	tp.stmtLo = tp.stmtLo[:0]
	tp.stmtHi = tp.stmtHi[:0]
	tp.stmtRows = tp.stmtRows[:0]
}

// buildTopo flattens the tree into t.topo. This is where the construction
// invariant every column kernel relies on is checked: each scope under the
// root is a row of the tree's own store. Child and AppendChild cannot build
// anything else, so a foreign scope — spliced into a Children list by hand,
// or moved over from another tree — is a bug, and a panic.
func (t *Tree) buildTopo() {
	st := t.arena.store
	tp := &t.topo
	tp.reset()
	var visit func(n *Node, parentRow int32)
	visit = func(n *Node, parentRow int32) {
		if n.Base.Store() != st {
			panic(fmt.Sprintf("core: scope %q is not a row of its tree's metric store", n.Label()))
		}
		row := n.Base.Row()
		for _, c := range n.Children {
			visit(c, row)
		}
		tp.post = append(tp.post, row)
		tp.parent = append(tp.parent, parentRow)
		tp.addFL = append(tp.addFL, n.Kind != KindFrame)
		lo := int32(len(tp.stmtRows))
		var ek uint8
		switch n.Kind {
		case KindFrame:
			ek = exFrame
		case KindLoop, KindAlien:
			ek = exLoopAlien
			for _, c := range n.Children {
				if c.Kind == KindStmt {
					tp.stmtRows = append(tp.stmtRows, c.Base.Row())
				}
			}
		case KindRoot:
			ek = exRoot
		default:
			ek = exBase
		}
		tp.exKind = append(tp.exKind, ek)
		tp.stmtLo = append(tp.stmtLo, lo)
		tp.stmtHi = append(tp.stmtHi, int32(len(tp.stmtRows)))
	}
	visit(t.Root, -1)
}

// recomputeMetrics does the actual Equation 1/2 computation; callers hold
// computeMu. Presented values are replaced outright — summary/computed
// overrides and derived columns are wiped and re-applied by their owners
// afterwards.
func (t *Tree) recomputeMetrics() {
	st := t.arena.store
	t.buildTopo()
	tp := &t.topo
	rows := st.NumRows()
	if cap(t.fl) < rows {
		t.fl = make([]float64, rows)
	}
	fl := t.fl[:rows]

	baseCols := st.NumCols(metric.PlaneBase)
	for col := 0; col < baseCols; col++ {
		base := st.Col(metric.PlaneBase, col)
		incl := st.Col(metric.PlaneIncl, col)
		excl := st.Col(metric.PlaneExcl, col)
		// Equation 2, plus the frame-local sums feeding Equation 1:
		// postorder guarantees a child's total is final before it is added
		// into its parent, in child-list order.
		copy(incl, base)
		copy(fl, base)
		for i, r := range tp.post {
			if p := tp.parent[i]; p >= 0 {
				incl[p] += incl[r]
				if tp.addFL[i] {
					fl[p] += fl[r]
				}
			}
		}
		// Equation 1 by precomputed rule class.
		for i, r := range tp.post {
			switch tp.exKind[i] {
			case exBase:
				excl[r] = base[r]
			case exFrame:
				excl[r] = fl[r]
			case exLoopAlien:
				v := base[r]
				for _, sr := range tp.stmtRows[tp.stmtLo[i]:tp.stmtHi[i]] {
					v += base[sr]
				}
				excl[r] = v
			case exRoot:
				excl[r] = 0
			}
		}
	}
	// Presented columns with no base samples (summaries, computed values,
	// derived results written by earlier passes) are wiped: recomputation
	// replaces the presented vectors entirely.
	for col := baseCols; col < st.NumCols(metric.PlaneIncl); col++ {
		clear(st.Col(metric.PlaneIncl, col))
	}
	for col := baseCols; col < st.NumCols(metric.PlaneExcl); col++ {
		clear(st.Col(metric.PlaneExcl, col))
	}
	t.computed = true
}

// compiledDerived pairs a derived column with its compiled stack program.
type compiledDerived struct {
	id   int
	prog *metric.Program
}

// compileDerived compiles every Derived column of the registry, in registry
// order, appending to dst (reused scratch for steady-state zero-alloc
// callers). Compilation reports exactly the *EvalError the tree evaluator
// would have produced (possible only for hand-built expression trees; Parse
// validates operators and functions), wrapped the same way.
func compileDerived(reg *metric.Registry, dst []compiledDerived) ([]compiledDerived, error) {
	derived := dst
	for _, d := range reg.Columns() {
		if d.Kind != metric.Derived {
			continue
		}
		p, err := d.Program()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		derived = append(derived, compiledDerived{id: d.ID, prog: p})
	}
	return derived, nil
}

// ApplyDerived evaluates every Derived column of the registry over each
// node of the subtree rooted at start, storing results in both the
// exclusive and inclusive vectors (a derived column is a spreadsheet
// formula applied row-wise to whichever flavor is displayed, Section V-D).
// Formulas are compiled once; the per-node evaluation cannot fail after
// that.
func ApplyDerived(reg *metric.Registry, start *Node) error {
	derived, err := compileDerived(reg, nil)
	if err != nil {
		return err
	}
	if len(derived) == 0 {
		return nil
	}
	Walk(start, func(n *Node) bool {
		for _, d := range derived {
			ev := d.prog.EvalEnv(metric.EnvFunc(n.Excl.Get))
			n.Excl.Set(d.id, ev)
			iv := d.prog.EvalEnv(metric.EnvFunc(n.Incl.Get))
			n.Incl.Set(d.id, iv)
		}
		return true
	})
	return nil
}

// ApplyDerivedTree applies derived metrics to the whole tree. Each formula
// runs as a vectorized kernel over whole metric columns: per derived column
// — in registry order, so a later formula referencing an earlier derived
// column sees its final values, like the per-node walk — the referenced
// slabs are prefetched once and the compiled program fills the output
// column in a single pass.
func (t *Tree) ApplyDerivedTree() error {
	st := t.arena.store
	derived, err := compileDerived(t.Reg, t.derived[:0])
	t.derived = derived
	if err != nil {
		return err
	}
	for _, d := range derived {
		refs := d.prog.ColumnRefs()
		for _, plane := range [2]metric.Plane{metric.PlaneExcl, metric.PlaneIncl} {
			cols := t.kernCols[:0]
			for _, rc := range refs {
				cols = append(cols, st.Col(plane, rc))
			}
			t.kernCols = cols
			d.prog.EvalCols(st.Col(plane, d.id), cols)
		}
	}
	return nil
}
