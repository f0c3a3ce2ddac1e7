package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/oracle"
)

// The concurrency harness for the lazy Callers View: construction and
// expansion must be safe from any number of goroutines (run under -race)
// and must produce exactly the view the rules give (oracle.Callers).

// TestCallersViewLazyConstruction checks that building the view does not
// build subtries, Expand builds exactly the requested root, and expansion
// is memoized.
func TestCallersViewLazyConstruction(t *testing.T) {
	tree := oracle.RandomRecursiveTree(2000, 3)
	v := core.BuildCallersView(tree)
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
	v.Expand(&core.Node{})
	if v.Expanded(&core.Node{}) {
		t.Fatal("foreign node reports expanded")
	}
}

// TestConcurrentExpandSharedView hammers one shared view with 16
// goroutines expanding overlapping root sets concurrently; the result
// must be the rules' view (each root built exactly once, no double
// counting).
func TestConcurrentExpandSharedView(t *testing.T) {
	tree := oracle.RandomRecursiveTree(4000, 11)
	v := core.BuildCallersView(tree)
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

	if err := oracle.Callers(tree).Check(v.Roots, 0); err != nil {
		t.Fatal(err)
	}
}

// TestExpandAllParallelMatchesSequential checks the worker-pool expansion
// at several pool sizes, one worker among them, against the rules' view.
func TestExpandAllParallelMatchesSequential(t *testing.T) {
	tree := oracle.RandomRecursiveTree(4000, 13)
	want := oracle.Callers(tree)
	core.AtGOMAXPROCS(t, func(procs int) {
		v := core.BuildCallersView(tree)
		if err := v.ExpandAll(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		for _, r := range v.Roots {
			if !v.Expanded(r) {
				t.Fatalf("GOMAXPROCS=%d: root %s not expanded", procs, r.Label())
			}
		}
		if err := want.Check(v.Roots, 0); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
	})
}
