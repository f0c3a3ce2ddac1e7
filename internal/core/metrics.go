package core

import (
	"fmt"

	"repro/internal/metric"
)

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
// walk performed. Rebuilt by each ComputeMetrics call, reusing slice
// capacity, so the steady state allocates nothing.
type topoScratch struct {
	post     []int32 // node rows in postorder
	parent   []int32 // parent row of post[i], -1 for the root
	addFL    []bool  // post[i] feeds its parent's frame-local sum (Kind != Frame)
	exKind   []uint8 // exclusive rule class for post[i]
	stmtLo   []int32 // exLoopAlien entries: range into stmtRows
	stmtHi   []int32
	stmtRows []int32 // rows of direct statement children, in child order
}

// reset empties the index and makes room for n scopes up front, so a first
// recomputation allocates each per-scope slice once instead of growing it
// append by append; a tree that has grown since doubles it.
func (tp *topoScratch) reset(n int) {
	if c := cap(tp.post); c < n {
		c = max(n, 2*c)
		tp.post = make([]int32, 0, c)
		tp.parent = make([]int32, 0, c)
		tp.addFL = make([]bool, 0, c)
		tp.exKind = make([]uint8, 0, c)
		tp.stmtLo = make([]int32, 0, c)
		tp.stmtHi = make([]int32, 0, c)
	}
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
	tp.reset(st.NumRows())
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
// one postorder index is built per call and each column is then a pair of
// linear sweeps. Per-parent accumulation follows child order — the addition
// sequence of a per-node recursion — and zero additions are bitwise no-ops
// (slabs never hold negative zero).
//
// Every tree constructor calls it before returning, or adopts planes baked
// on disk, or — the diff union — gathers each column's planes from trees
// that did; views only read the result. It writes only the columns
// that have Base values: a summary, computed or presence column is written
// once by the code that makes it, before or after, and is left as it is.
// Derived columns are evaluated again on their next read, since every
// column written here bumps the store's version.
func (t *Tree) ComputeMetrics() {
	st := t.arena.store
	t.buildTopo()
	tp := &t.topo
	rows := st.NumRows()
	if cap(t.fl) < rows {
		t.fl = make([]float64, rows)
	}
	fl := t.fl[:rows]

	for col := range st.NumCols(metric.PlaneBase) {
		if len(st.ColRead(metric.PlaneBase, col)) == 0 {
			continue // no base slab: nothing for Equations 1-2 to present
		}
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
}
