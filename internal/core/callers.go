package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// expandState memoizes one root row's subtrie construction: the Once makes
// concurrent Expand calls on the same root build it exactly once, done
// publishes completion to Expanded without holding any lock.
type expandState struct {
	once sync.Once
	done atomic.Bool
}

// CallersView is the bottom-up view. Roots are procedure rows; expanding a
// root materializes its caller subtrie on demand (Section VII: "the Callers
// View is constructed dynamically ... we store and process data only when
// needed").
//
// Construction is concurrency-safe: distinct roots own disjoint subtries
// and the CCT is only read, so any number of goroutines may Expand (and
// read Expanded) simultaneously — the locking protocol behind the viewer's
// on-demand expansion and ExpandAllParallel.
type CallersView struct {
	Reg   *metric.Registry
	Roots []*Node

	instances map[*Node][]*Node      // root row -> frame instances of that proc
	expand    map[*Node]*expandState // root row -> memoized expansion; read-only after Build
}

// BuildCallersView scans the CCT once, creating one root row per procedure
// with exposed-aggregate costs. Caller subtries are not built until
// Expand/ExpandAll — the lazy construction the paper credits for the view's
// scalability. The tree is only read (metrics are computed first under the
// tree's lock), so several views may be built from one tree concurrently.
func BuildCallersView(t *Tree) *CallersView {
	t.EnsureComputed()
	v := &CallersView{Reg: t.Reg, instances: map[*Node][]*Node{}, expand: map[*Node]*expandState{}}
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
			// Each root row owns a private arena and metric store: its
			// subtrie is built by exactly one goroutine (under the expansion
			// Once), so disjoint roots expand in parallel with no allocator
			// contention — and no store's slabs are ever shared across trees.
			arena := &nodeArena{store: metric.NewStore()}
			row := arena.alloc()
			row.Key = Key{Kind: KindProc, Name: n.Name, File: n.File, Line: n.Line}
			row.NoSource = n.NoSource
			row.arena = arena
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
	for i, row := range v.Roots {
		v.instances[row] = instances[i]
		v.expand[row] = &expandState{}
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
	st := v.expand[root]
	return st != nil && st.done.Load()
}

// Expand materializes the caller subtrie of one root row, exactly once no
// matter how many goroutines race here. Safe to call repeatedly and
// concurrently (with Expand on any root and Expanded on this one); calls
// for nodes that are not root rows of this view are no-ops.
func (v *CallersView) Expand(root *Node) {
	st := v.expand[root]
	if st == nil {
		return
	}
	st.once.Do(func() {
		v.buildSubtrie(root)
		st.done.Store(true)
	})
}

// buildSubtrie constructs one root's caller trie; callers hold the root's
// expansion Once. Only nodes under root are written; the CCT instances are
// read-only, which is what makes disjoint roots expandable in parallel.
func (v *CallersView) buildSubtrie(root *Node) {
	for _, inst := range v.instances[root] {
		rev, ancestors := reversedPath(inst)
		// D = deepest reversed-path prefix shared with an ancestor
		// instance; contribute at depths > D only.
		d0 := -1
		for _, anc := range ancestors {
			ra, _ := reversedPath(anc)
			if l := lcp(rev, ra); l > d0 {
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

// ExpandAll eagerly builds every caller subtrie. A panic while expanding
// one root (a poisoned subtrie) is recovered and returned as an error
// instead of crashing the process.
func (v *CallersView) ExpandAll() error {
	return v.ExpandAllCtx(context.Background(), 1)
}

// ExpandAllParallel builds every caller subtrie using up to jobs
// goroutines (GOMAXPROCS when jobs <= 0). Roots are independent, so the
// result is identical to ExpandAll.
func (v *CallersView) ExpandAllParallel(jobs int) error {
	return v.ExpandAllCtx(context.Background(), jobs)
}

// ExpandAllCtx is ExpandAllParallel with cancellation: expansion stops at
// the next root once ctx is done, and a worker panic is recovered,
// reported as an error, and cancels the remaining work — one poisoned
// subtrie cannot crash or wedge the process.
func (v *CallersView) ExpandAllCtx(ctx context.Context, jobs int) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(v.Roots) {
		jobs = len(v.Roots)
	}
	expand := func(root *Node) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: panic expanding callers view of %q: %v", root.Name.String(), r)
			}
		}()
		v.Expand(root)
		return nil
	}
	if jobs <= 1 {
		for _, r := range v.Roots {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := expand(r); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var stop atomic.Bool
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(v.Roots) {
					return
				}
				if err := expand(v.Roots[i]); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
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

// reversedPath returns the caller-frame chain of inst from innermost to
// outermost, plus the ancestor frames that are instances of the same
// procedure.
func reversedPath(inst *Node) (rev []*Node, sameProc []*Node) {
	id := frameProc(inst)
	for a := inst.Parent; a != nil; a = a.Parent {
		if a.Kind != KindFrame {
			continue
		}
		rev = append(rev, a)
		if frameProc(a) == id {
			sameProc = append(sameProc, a)
		}
	}
	return rev, sameProc
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
