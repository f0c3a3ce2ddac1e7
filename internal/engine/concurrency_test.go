package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/render"
	"repro/internal/workloads"
)

// TestClosedSessionDoesNotPoisonSnapshot cancels a session around
// in-flight bulk expansion and checks the shared snapshot still serves
// fresh sessions bit-for-bit correctly — cancellation must only ever be a
// session-local event.
func TestClosedSessionDoesNotPoisonSnapshot(t *testing.T) {
	path, _ := v3FixtureFile(t)
	shared := mappedSnapshot(t, path)

	// Ground truth from a private snapshot.
	clean := NewSession(mappedSnapshot(t, path))
	defer clean.Close()
	script := []string{"view callers", "expandall", "sort CYCLES", "ls"}
	want := oracle.Replay(script, surface(clean).Do)

	// A session cancelled before bulk expansion: ExpandAllCtx observes the
	// dead context and stops early.
	victim := NewSession(shared)
	victim.SwitchView(ViewCallers)
	victim.VisibleRows()
	victim.Close()
	if err := victim.ExpandAll(victim.Tree().Root); err == nil {
		t.Fatal("cancelled session expanded everything anyway")
	}

	// Sessions racing their own cancellation, for the race detector's
	// benefit (Close is documented safe from another goroutine), with one
	// expansion worker and with eight.
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := NewSession(shared)
				s.SwitchView(ViewCallers)
				done := make(chan struct{})
				go func() { s.Close(); close(done) }()
				_ = s.ExpandAll(s.Tree().Root)
				<-done
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(old)
	}

	// The snapshot is unharmed: a fresh session over it matches the
	// private-snapshot ground truth exactly.
	after := NewSession(shared)
	defer after.Close()
	if got := oracle.Replay(script, surface(after).Do); got != want {
		t.Fatalf("snapshot poisoned by cancelled sessions\n--- shared after cancel ---\n%s\n--- clean ---\n%s", got, want)
	}

	// A session closed part-way through its expandall leaves some of the
	// shared view's subtries built and the rest not; a second session's
	// expandall over that view renders as on a private one.
	partial := mappedSnapshot(t, path)
	defer partial.Close()
	half := NewSession(partial)
	half.SwitchView(ViewCallers)
	half.VisibleRows()
	ca := &closeAfter{Context: half.ctx, close: half.Close}
	ca.polls.Store(3)
	half.ctx = ca
	if err := half.expandAllRows(); !errors.Is(err, context.Canceled) {
		t.Fatalf("expandall closed part-way: %v, want context.Canceled", err)
	}
	built := 0
	for _, r := range partial.CallersView().Roots {
		if partial.CallersView().Expanded(r) {
			built++
		}
	}
	if roots := len(partial.CallersView().Roots); built == 0 || built == roots {
		t.Fatalf("fixture: the closed expandall built %d of %d roots, want some but not all", built, roots)
	}
	second := NewSession(partial)
	defer second.Close()
	if got := oracle.Replay(script, surface(second).Do); got != want {
		t.Fatalf("expandall after one closed part-way\n--- shared ---\n%s\n--- clean ---\n%s", got, want)
	}
}

// closeAfter is a session context whose Err lets polls calls through and
// closes the session on the next: ExpandAllCtx polls once per root.
type closeAfter struct {
	context.Context
	polls atomic.Int32
	close func()
}

func (c *closeAfter) Err() error {
	if c.polls.Add(-1) < 0 {
		c.close()
	}
	return c.Context.Err()
}

// TestConcurrentSessionsShareCallersView: sessions over one snapshot, however
// many and in whatever order they ask, present the one Callers View the
// snapshot built, so core.BuildCallersView runs once per snapshot.
func TestConcurrentSessionsShareCallersView(t *testing.T) {
	path, _ := v3FixtureFile(t)
	shared := mappedSnapshot(t, path)
	defer shared.Close()
	views := make([]*core.CallersView, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSession(shared)
			defer s.Close()
			oracle.Replay([]string{"view callers", fmt.Sprintf("expand %d", i%3)}, surface(s).Do)
			views[i] = s.callers
		}(i)
	}
	wg.Wait()
	for i, v := range views {
		if v == nil || v != shared.CallersView() {
			t.Fatalf("session %d presents Callers View %p, the snapshot's is %p", i, v, shared.CallersView())
		}
	}
}

// TestConcurrentFirstReadsOfRegistryFormulas: eight goroutines make the
// first reads of two registry formulas, the second over the first, on one
// shared eager tree — through Node.Incl.Get, a Flat View built from the
// tree and a render of it, in an order that differs by goroutine — and each
// output is byte-equal to a serial run on a tree of its own.
func TestConcurrentFirstReadsOfRegistryFormulas(t *testing.T) {
	build := func() *core.Tree {
		tree := mergeWorkload(t, workloads.S3D(), 3).Tree
		f, err := tree.Reg.AddDerived("f", "$0*$0/($0+1)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tree.Reg.AddDerived("g", fmt.Sprintf("sqrt($%d) - $0", f.ID)); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	read := func(tree *core.Tree, order int) string {
		var cells, flat, cct bytes.Buffer
		steps := []func(){
			func() {
				for _, name := range []string{"g", "f"} {
					id := tree.Reg.ByName(name).ID
					core.Walk(tree.Root, func(n *core.Node) bool {
						fmt.Fprintf(&cells, "%s %v %v\n", n.Label(), n.Incl.Get(id), n.Excl.Get(id))
						return true
					})
				}
			},
			func() {
				if err := render.RenderFlat(&flat, core.BuildFlatView(tree), tree, render.Options{}); err != nil {
					t.Error(err)
				}
			},
			func() {
				if err := render.RenderTree(&cct, tree, render.Options{}); err != nil {
					t.Error(err)
				}
			},
		}
		for i := range steps {
			steps[(i+order)%len(steps)]()
		}
		return cells.String() + flat.String() + cct.String()
	}
	want := read(build(), 0)

	shared := build()
	got := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = read(shared, i)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != want {
			t.Errorf("goroutine %d read the formulas differently from a serial run", i)
		}
	}
}
