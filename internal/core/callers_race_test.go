package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/metric"
)

// The concurrency harness for the lazy Callers View: construction and
// expansion must be safe from any number of goroutines (run under -race)
// and must produce exactly the sequential result.

// randomRecursiveTree builds a finished CCT with recursion and loops, big
// enough that concurrent expansion has real work to interleave.
func randomRecursiveTree(nodes int, seed int64) *Tree {
	rng := rand.New(rand.NewSource(seed))
	t := NewTree("race", nil)
	for _, name := range []string{"CYCLES", "FLOPS"} {
		if _, err := t.Reg.AddRaw(name, "events", 1); err != nil {
			panic(err)
		}
	}
	procs := make([]string, 12)
	for i := range procs {
		procs[i] = fmt.Sprintf("p%02d", i)
	}
	cur := t.Root.Child(Key{Kind: KindFrame, Name: Sym("main"), File: Sym("main.c")}, true)
	stack := []*Node{cur}
	for created := 1; created < nodes; created++ {
		switch op := rng.Intn(5); {
		case op <= 1 && len(stack) < 24:
			name := procs[rng.Intn(len(procs))]
			fr := stack[len(stack)-1].Child(Key{Kind: KindFrame, Name: Sym(name), File: Sym("x.c"), ID: uint64(rng.Intn(4))}, true)
			fr.CallLine = rng.Intn(90) + 1
			fr.CallFile = Sym("x.c")
			stack = append(stack, fr)
		case op == 2:
			st := stack[len(stack)-1].Child(Key{Kind: KindStmt, File: Sym("x.c"), Line: rng.Intn(300) + 1}, true)
			st.Base.Add(0, float64(rng.Intn(50)+1))
			st.Base.Add(1, float64(created%4)) // drawn from no rng: the shape stays the seed's
		default:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	t.ComputeMetrics()
	return t
}

// sameView asserts two callers views are structurally identical with
// identical metrics, children compared in order.
func sameView(t *testing.T, a, b *CallersView) {
	t.Helper()
	if len(a.Roots) != len(b.Roots) {
		t.Fatalf("root count %d != %d", len(a.Roots), len(b.Roots))
	}
	var walk func(x, y *Node, path string)
	walk = func(x, y *Node, path string) {
		if x.Key != y.Key {
			t.Fatalf("%s: key %+v != %+v", path, x.Key, y.Key)
		}
		where := path + "/" + x.Label()
		x.Incl.Range(func(id int, v float64) {
			if got := y.Incl.Get(id); got != v {
				t.Fatalf("%s: incl col %d: %v != %v", where, id, v, got)
			}
		})
		x.Excl.Range(func(id int, v float64) {
			if got := y.Excl.Get(id); got != v {
				t.Fatalf("%s: excl col %d: %v != %v", where, id, v, got)
			}
		})
		if x.Incl.Len() != y.Incl.Len() || x.Excl.Len() != y.Excl.Len() {
			t.Fatalf("%s: vector widths differ", where)
		}
		if len(x.Children) != len(y.Children) {
			t.Fatalf("%s: %d children != %d", where, len(x.Children), len(y.Children))
		}
		for i := range x.Children {
			walk(x.Children[i], y.Children[i], where)
		}
	}
	for i := range a.Roots {
		walk(a.Roots[i], b.Roots[i], "")
	}
}

// TestCallersViewLazyConstruction checks that building the view does not
// build subtries, Expand builds exactly the requested root, and expansion
// is memoized.
func TestCallersViewLazyConstruction(t *testing.T) {
	tree := randomRecursiveTree(2000, 3)
	v := BuildCallersView(tree)
	if len(v.Roots) == 0 {
		t.Fatal("no roots")
	}
	for _, r := range v.Roots {
		if len(r.Children) != 0 {
			t.Fatalf("root %s materialized eagerly", r.Label())
		}
		if v.Expanded(r) {
			t.Fatalf("root %s reports expanded before Expand", r.Label())
		}
	}
	v.Expand(v.Roots[0])
	if !v.Expanded(v.Roots[0]) {
		t.Fatal("expanded root not reported as expanded")
	}
	for _, r := range v.Roots[1:] {
		if v.Expanded(r) {
			t.Fatalf("expanding one root leaked into %s", r.Label())
		}
	}
	// Repeated expansion must not double the costs: snapshot, expand
	// again, compare.
	collect := func(v *metric.View) map[int]float64 {
		m := map[int]float64{}
		v.Range(func(id int, x float64) { m[id] = x })
		return m
	}
	before := collect(&v.Roots[0].Incl)
	children := len(v.Roots[0].Children)
	v.Expand(v.Roots[0])
	if got := collect(&v.Roots[0].Incl); !reflect.DeepEqual(got, before) {
		t.Fatalf("second Expand changed the root vector: %v, was %v", got, before)
	}
	if len(v.Roots[0].Children) != children {
		t.Fatal("second Expand grew the subtrie")
	}
	// Expanding a node that is not a root row of this view is a no-op.
	v.Expand(tree.Root)
	v.Expand(&Node{})
	if v.Expanded(&Node{}) {
		t.Fatal("foreign node reports expanded")
	}
}

// TestConcurrentExpandSharedView hammers one shared view with 16
// goroutines expanding overlapping root sets concurrently; the result
// must be identical to a sequentially expanded twin (each root built
// exactly once, no double counting).
func TestConcurrentExpandSharedView(t *testing.T) {
	tree := randomRecursiveTree(4000, 11)
	v := BuildCallersView(tree)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Overlapping slices: everyone fights over the same roots.
			for i := g % 3; i < len(v.Roots); i++ {
				v.Expand(v.Roots[i])
				if !v.Expanded(v.Roots[i]) {
					panic("Expand returned before subtrie was built")
				}
			}
		}(g)
	}
	wg.Wait()

	ref := BuildCallersView(randomRecursiveTree(4000, 11))
	ref.ExpandAll()
	sameView(t, ref, v)
}

// atGOMAXPROCS runs f at GOMAXPROCS 1, 2, 4 and 16 in turn — the worker
// counts of ExpandAll's pool — and restores the old value when the test
// ends. Tests that call it must not run in parallel.
func atGOMAXPROCS(t *testing.T, f func(procs int)) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	for _, procs := range []int{1, 2, 4, 16} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestExpandAllParallelMatchesSequential checks the worker-pool expansion
// at several pool sizes against a one-worker reference.
func TestExpandAllParallelMatchesSequential(t *testing.T) {
	var ref *CallersView
	atGOMAXPROCS(t, func(procs int) {
		v := BuildCallersView(randomRecursiveTree(4000, 13))
		if err := v.ExpandAll(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for _, r := range v.Roots {
			if !v.Expanded(r) {
				t.Fatalf("GOMAXPROCS=%d: root %s not expanded", procs, r.Label())
			}
		}
		if ref == nil {
			ref = v
		}
		sameView(t, ref, v)
	})
}
