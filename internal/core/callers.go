package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/metric"
)

// The Callers View (Section III-B) is the bottom-up view: one root row per
// procedure aggregating every context it ran in, with children unwinding
// the call chain upward ("called from ...").
//
// Recursion handling (Section IV-B): an instance of procedure p is
// "exposed" when no proper ancestor frame is also an instance of p; only
// exposed instances contribute to p's root row, which is why Figure 2b's ga
// shows 9 (= g1's 6 + g3's 3) and not 14. The generalization to interior
// rows: instance i contributes its own (inclusive, exclusive) pair to the
// caller-path trie node at depth d exactly when no ancestor instance shares
// the same reversed-path prefix of length d. Equivalently, i contributes at
// depths strictly greater than
//
//	D(i) = max over ancestor instances j of lcp(rev(i), rev(j))
//
// where rev(x) is x's caller-procedure chain from innermost to outermost.
// With that rule, Figure 2b reproduces exactly: g2 (an unexposed instance)
// skips the root but creates the "called from g" subtree with its own cost.

// procID identifies a procedure across contexts. Both fields are interned
// symbols, so procID is an 8-byte comparable value — exposure checks and
// row lookups never hash string bytes.
type procID struct {
	name intern.Sym
	file intern.Sym
}

func frameProc(n *Node) procID { return procID{name: n.Name, file: n.File} }

// rootState is one root row's lazy expansion: the frame instances of its
// procedure, the Once that makes concurrent Expand calls on the root build
// its subtrie exactly once, done, which publishes completion to Expanded
// without holding any lock, and the panic of a build that failed, which
// every later Expand raises again.
type rootState struct {
	instances []*Node
	once      sync.Once
	done      atomic.Bool
	panicked  any
}

// CallersView is the bottom-up view. Roots are procedure rows; expanding a
// root materializes its caller subtrie on demand (Section VII: "the Callers
// View is constructed dynamically ... we store and process data only when
// needed").
//
// Construction is concurrency-safe: the root rows share one store that
// nothing writes after BuildCallersView, each subtrie has a store of its
// own, and the CCT is only read, so any number of goroutines may Expand
// (and read Expanded) simultaneously — the locking protocol behind the
// viewer's on-demand expansion, ExpandAll's worker pool and the sessions
// that share one snapshot's view. A root's Children may be read only
// after Expand of it has returned.
type CallersView struct {
	Reg   *metric.Registry
	Roots []*Node

	roots map[*Node]*rootState // root row -> its expansion; read-only after Build
}

// BuildCallersView scans the CCT once, creating one root row per procedure
// with exposed-aggregate costs. Caller subtries are not built until
// Expand/ExpandAll — the lazy construction the paper credits for the view's
// scalability. The tree is only read, so several views may be built from
// one tree concurrently.
func BuildCallersView(t *Tree) *CallersView {
	v := &CallersView{Reg: t.Reg}
	// The root rows share one arena and store, written only here.
	arena := &nodeArena{store: t.Reg.NewStore()}
	rows := map[procID]int32{} // procedure -> index of its row in scan order
	var instances [][]*Node    // by that index
	var active exposure        // by that index: frames of the procedure on the path
	var scan func(n *Node)
	scan = func(n *Node) {
		if n.Kind != KindFrame {
			for _, c := range n.Children {
				scan(c)
			}
			return
		}
		i, ok := rows[frameProc(n)]
		if !ok {
			// The row gets its arena when its subtrie is built.
			row := arena.alloc()
			row.Key = Key{Kind: KindProc, Name: n.Name, File: n.File, Line: n.Line}
			row.NoSource = n.NoSource
			i = int32(len(v.Roots))
			rows[frameProc(n)] = i
			v.Roots = append(v.Roots, row)
			instances = append(instances, nil)
		}
		instances[i] = append(instances[i], n)
		if row := v.Roots[i]; active.enter(i) {
			row.Incl.AddView(&n.Incl)
			row.Excl.AddView(&n.Excl)
		}
		for _, c := range n.Children {
			scan(c)
		}
		active.exit(i)
	}
	scan(t.Root)
	states := make([]rootState, len(v.Roots))
	v.roots = make(map[*Node]*rootState, len(v.Roots))
	for i, row := range v.Roots {
		states[i].instances = instances[i]
		v.roots[row] = &states[i]
	}
	// Order root rows by resolved name with a full (file, line, id)
	// secondary key: the same procedure name can occur in several files or
	// load modules, and name alone under sort.Slice reordered such ties
	// run-to-run.
	sort.Slice(v.Roots, func(i, j int) bool {
		a, b := v.Roots[i], v.Roots[j]
		if a.Name != b.Name {
			return a.Name.String() < b.Name.String()
		}
		if a.File != b.File {
			return a.File.String() < b.File.String()
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.ID < b.ID
	})
	return v
}

// Expanded reports whether the root's caller subtrie has been built. Safe
// to call concurrently with Expand.
func (v *CallersView) Expanded(root *Node) bool {
	st := v.roots[root]
	return st != nil && st.done.Load()
}

// Expand materializes the caller subtrie of one root row, exactly once no
// matter how many goroutines race here. Safe to call repeatedly and
// concurrently (with Expand on any root and Expanded on this one); calls
// for nodes that are not root rows of this view are no-ops. A panic in the
// build (a fault on a page of a mapped database file that shrank) is raised
// by this call and again by every later one, so no caller takes a half-built
// subtrie for a finished one.
func (v *CallersView) Expand(root *Node) {
	st := v.roots[root]
	if st == nil {
		return
	}
	st.once.Do(func() {
		defer func() { st.panicked = recover() }()
		v.buildSubtrie(root, st.instances)
		st.done.Store(true)
	})
	if st.panicked != nil {
		panic(st.panicked)
	}
}

// buildSubtrie constructs one root's caller trie from its instances; callers
// hold the root's expansion Once. The subtrie gets an arena and store of its
// own, so the root rows' shared store never grows; only root's Children and
// nodes under it are written, and the CCT instances are read-only, which is
// what makes disjoint roots expandable in parallel.
func (v *CallersView) buildSubtrie(root *Node, instances []*Node) {
	root.arena = &nodeArena{store: v.Reg.NewStore()}
	var rev []*Node // the instance's caller frames, innermost first
	var same []int  // indices in rev of frames of the instance's procedure
	for _, inst := range instances {
		id := frameProc(inst)
		rev, same = rev[:0], same[:0]
		for a := inst.Parent; a != nil; a = a.Parent {
			if a.Kind != KindFrame {
				continue
			}
			if frameProc(a) == id {
				same = append(same, len(rev))
			}
			rev = append(rev, a)
		}
		// D = deepest reversed-path prefix shared with an ancestor
		// instance, whose own reversed path is the rest of rev past it;
		// contribute at depths > D only.
		d0 := -1
		for _, j := range same {
			if l := lcp(rev, rev[j+1:]); l > d0 {
				d0 = l
			}
		}
		cur := root
		callee := inst
		for d := 0; d < len(rev); d++ {
			caller := rev[d]
			// Trie levels merge by caller *procedure* (matching the
			// exposure computation); the call site into the callee is
			// kept for display.
			cur = cur.Child(Key{Kind: KindProc, Name: caller.Name, File: caller.File, Line: caller.Line}, true)
			cur.NoSource = caller.NoSource
			if cur.CallLine == 0 {
				cur.CallLine = callee.CallLine
				cur.CallFile = callee.CallFile
			}
			// This trie node covers the reversed-path prefix of length
			// d+1; the instance contributes when that length exceeds
			// the deepest prefix shared with an ancestor instance.
			if d+1 > d0 {
				cur.Incl.AddView(&inst.Incl)
				cur.Excl.AddView(&inst.Excl)
			}
			callee = caller
		}
	}
}

// ExpandAll eagerly builds every caller subtrie; see ExpandAllCtx.
func (v *CallersView) ExpandAll() error {
	return v.ExpandAllCtx(context.Background())
}

// ExpandAllParallel is ExpandAll; jobs is ignored.
//
// Deprecated: the worker count comes from GOMAXPROCS. Use ExpandAll.
func (v *CallersView) ExpandAllParallel(jobs int) error { return v.ExpandAll() }

// ExpandAllCtx builds every caller subtrie on min(GOMAXPROCS, roots)
// workers, the calling goroutine being the first. Roots are independent, so
// the result does not depend on the worker count. Expansion stops at the
// next root once ctx is done, and a panic while expanding one root (a
// poisoned subtrie) is recovered, reported as an error, and stops the
// remaining work — one poisoned subtrie cannot crash or wedge the process.
// A fault on a page of a mapped database file that shrank stops the work
// too, and is raised again on the calling goroutine once every worker has
// stopped, so the caller's own recovery sees it as a fault of its own.
func (v *CallersView) ExpandAllCtx(ctx context.Context) error {
	workers := min(runtime.GOMAXPROCS(0), len(v.Roots))
	if workers == 0 {
		return nil
	}
	faults := make([]any, workers)
	expand := func(w int, root *Node) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, fault := r.(interface{ Addr() uintptr }); fault {
					faults[w] = r
				}
				err = fmt.Errorf("core: panic expanding callers view of %q: %v", root.Name.String(), r)
			}
		}()
		v.Expand(root)
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	errs := make([]error, workers)
	work := func(w int) {
		// A fault on a mapped page panics, and expand recovers it.
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		for !stop.Load() {
			if err := ctx.Err(); err != nil {
				errs[w] = err
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(v.Roots) {
				return
			}
			if err := expand(w, v.Roots[i]); err != nil {
				errs[w] = err
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for _, f := range faults {
		if f != nil {
			panic(f)
		}
	}
	// Prefer a real failure over a cancellation notice.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// lcp returns the length of the longest common prefix of two caller chains,
// comparing procedure identities.
func lcp(a, b []*Node) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if frameProc(a[i]) != frameProc(b[i]) {
			return i
		}
	}
	return n
}
