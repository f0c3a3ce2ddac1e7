package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/render"
	"repro/internal/workloads"
)

// commandStreams returns n deterministic interaction scripts covering the
// full engine surface: view switches, expansion, sorting (by raw, summary,
// derived and label), derived-metric registration — every script registers
// a session formula and reads it — hot paths, zoom, flattening, column
// selection, limits and summary stats. Streams repeat
// cyclically, so concurrent sessions include both identical scripts racing
// each other and different scripts interleaving.
func commandStreams(n int) [][]string {
	base := [][]string{
		{"ls", "expand 0", "derived e=$0+1", "hot e", "view callers", "expand 1", "view flat", "flatten", "ls"},
		{"view callers", "derived sq=$0*$0", "expandall", "sort CYCLES:excl", "ls", "view cc", "cols all", "ls"},
		{"derived waste=$0*2", "sort waste", "expandall", "ls", "stats waste"},
		{"derived neg=0-$0", "sort name", "expandall", "ls", "view flat", "flatten", "flatten", "sort neg", "ls", "unflatten", "ls"},
		{"cols CYCLES", "expand 0", "zoom 0", "derived half=$0/2", "cols all", "ls", "out", "ls", "top 2", "ls", "depth 2", "ls"},
		{"derived ratio=$0/($0+1)", "cols all", "hot ratio", "ls", "view callers", "hot ratio", "ls"},
		{"expandall", "threshold 0.9", "hot CYCLES", "derived rt=sqrt($0)", "view flat", "hot rt", "ls", "stats rt:excl", "stats CYCLES:excl"},
		{"view callers", "ls", "expand 0", "expand 2", "sort name", "ls", "view cc", "derived d2=$1+$0", "sort d2", "ls", "metrics"},
	}
	out := make([][]string, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

// replay runs one command stream against a session and returns the
// concatenated responses (outputs and error texts — both must match).
func replay(s *Session, stream []string) string {
	var out strings.Builder
	for _, line := range stream {
		resp := s.Do(Request{Line: line})
		out.WriteString(resp.Output)
		if resp.Err != "" {
			fmt.Fprintf(&out, "error: %s\n", resp.Err)
		}
	}
	return out.String()
}

// isolatedReplays replays each stream in full isolation: a fresh database
// open, a fresh snapshot, one session — the ground truth a concurrent
// session must be indistinguishable from.
func isolatedReplays(t *testing.T, path string, streams [][]string) []string {
	t.Helper()
	want := make([]string, len(streams))
	for i, stream := range streams {
		s := NewSession(mappedSnapshot(t, path))
		want[i] = replay(s, stream)
		s.Close()
	}
	return want
}

// TestConcurrentSessionEquivalence is the engine's core guarantee, and the
// PR's acceptance gate: 32 sessions hammering ONE shared snapshot
// concurrently — mixed view switches, sorts, session-private derived
// formulas, hot paths — each produce renders
// byte-identical to the same command stream replayed in isolation (its own
// database open, its own snapshot, no sharing). Run under -race this also
// serves as the shared-state hazard hammer: any unsynchronized mutation of
// the shared tree, store, registry or mapped database is a detector hit.
func TestConcurrentSessionEquivalence(t *testing.T) {
	path, _ := v3FixtureFile(t)
	const sessions = 32
	streams := commandStreams(sessions)
	want := isolatedReplays(t, path, streams)

	// Sanity: the scripts render real tables, not just error chatter.
	for i, w := range want {
		if !strings.Contains(w, "scope") {
			t.Fatalf("stream %d produced no render:\n%s", i, w)
		}
	}

	shared := mappedSnapshot(t, path)
	got := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSession(shared)
			defer s.Close()
			got[i] = replay(s, streams[i])
		}(i)
	}
	wg.Wait()

	for i := range got {
		if got[i] != want[i] {
			t.Errorf("session %d diverged from isolated replay\n--- shared ---\n%s\n--- isolated ---\n%s",
				i, got[i], want[i])
		}
	}
}

// TestConcurrentSessionsRepeatedRounds re-runs sessions over an
// snapshot earlier rounds already ran over: later joiners must see exactly what the first wave saw.
func TestConcurrentSessionsRepeatedRounds(t *testing.T) {
	path, _ := v3FixtureFile(t)
	const sessions = 8
	streams := commandStreams(sessions)
	want := isolatedReplays(t, path, streams)

	shared := mappedSnapshot(t, path)
	for round := 0; round < 3; round++ {
		got := make([]string, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := NewSession(shared)
				defer s.Close()
				got[i] = replay(s, streams[i])
			}(i)
		}
		wg.Wait()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d session %d diverged from isolated replay", round, i)
			}
		}
	}
}

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
	want := replay(clean, []string{"view callers", "expandall", "sort CYCLES", "ls"})

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
	if got := replay(after, []string{"view callers", "expandall", "sort CYCLES", "ls"}); got != want {
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
	if got := replay(second, []string{"view callers", "expandall", "sort CYCLES", "ls"}); got != want {
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
			replay(s, []string{"view callers", fmt.Sprintf("expand %d", i%3)})
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

// TestCallersSessionsIsolated: one session opens roots of the shared
// Callers View, one by one, all at once and along a hot path; a session
// that comes after it renders byte for byte what it renders on a snapshot
// nobody else touched, + markers included.
func TestCallersSessionsIsolated(t *testing.T) {
	shared := NewSnapshot(expdb.New(bushyTree(t, 2000, 7)))
	defer shared.Close()
	a := NewSession(shared)
	defer a.Close()
	if out := replay(a, []string{"view callers", "expand 1", "expandall", "hot M0"}); strings.Contains(out, "error") {
		t.Fatalf("session A:\n%s", out)
	}
	script := []string{"view callers", "ls"}
	b := NewSession(shared)
	defer b.Close()
	got := replay(b, script)
	clean := NewSnapshot(expdb.New(bushyTree(t, 2000, 7)))
	defer clean.Close()
	c := NewSession(clean)
	defer c.Close()
	if want := replay(c, script); got != want {
		t.Fatalf("a session after another renders differently\n--- after A ---\n%s\n--- untouched ---\n%s", got, want)
	}
}

// TestSessionDerivedIsolation: two sessions over one snapshot register
// different formulas under the same column name; neither observes the
// other's values, and the shared registry never grows.
func TestSessionDerivedIsolation(t *testing.T) {
	path, _ := v3FixtureFile(t)
	shared := mappedSnapshot(t, path)
	baseLen := shared.Tree().Reg.Len()

	a := NewSession(shared)
	b := NewSession(shared)
	defer a.Close()
	defer b.Close()
	if err := a.AddDerivedMetric("x", "$0 * 2"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDerivedMetric("x", "$0 * 10"); err != nil {
		t.Fatal(err)
	}
	da, db := a.Registry().ByName("x"), b.Registry().ByName("x")
	if da.ID != db.ID {
		t.Fatalf("same formula slot got different IDs: %d vs %d", da.ID, db.ID)
	}
	root := shared.Tree().Root
	va := a.cellValue(root, da.ID, true)
	vb := b.cellValue(root, db.ID, true)
	if va == 0 || vb != 5*va {
		t.Fatalf("overlay isolation broken: a=%g b=%g", va, vb)
	}
	if shared.Tree().Reg.Len() != baseLen {
		t.Fatalf("shared registry grew from %d to %d", baseLen, shared.Tree().Reg.Len())
	}
	if got := root.Incl.Get(da.ID); got != 0 {
		t.Fatalf("derived values leaked into the shared store: %g", got)
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
