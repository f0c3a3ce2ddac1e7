package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// commandStreams returns n deterministic interaction scripts covering the
// full engine surface: view switches, expansion, sorting (by raw, summary,
// derived and label), derived-metric registration, hot paths, zoom,
// flattening, column selection, limits and summary stats. Streams repeat
// cyclically, so concurrent sessions include both identical scripts racing
// each other and different scripts interleaving.
func commandStreams(n int) [][]string {
	base := [][]string{
		{"ls", "expand 0", "hot CYCLES", "view callers", "expand 1", "view flat", "flatten", "ls"},
		{"view callers", "expandall", "sort CYCLES:excl", "ls", "view cc", "cols all", "ls"},
		{"derived waste=$0*2", "sort waste", "expandall", "ls", "stats waste"},
		{"sort name", "expandall", "ls", "view flat", "flatten", "flatten", "ls", "unflatten", "ls"},
		{"cols CYCLES", "expand 0", "zoom 0", "ls", "out", "ls", "top 2", "ls", "depth 2", "ls"},
		{"derived ratio=$0/($0+1)", "cols all", "hot ratio", "ls", "view callers", "hot ratio", "ls"},
		{"expandall", "threshold 0.9", "hot CYCLES", "view flat", "hot CYCLES", "ls", "stats CYCLES:excl"},
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
// formulas, hot paths, lazy column fault-in — each produce renders
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
// already-warm snapshot (every lazy column faulted, generation settled):
// later joiners must see exactly what the first wave saw.
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
	// benefit (Close is documented safe from another goroutine).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewSession(shared)
			s.SetJobs(4)
			s.SwitchView(ViewCallers)
			done := make(chan struct{})
			go func() { s.Close(); close(done) }()
			_ = s.ExpandAll(s.Tree().Root)
			<-done
		}()
	}
	wg.Wait()

	// The snapshot is unharmed: a fresh session over it matches the
	// private-snapshot ground truth exactly.
	after := NewSession(shared)
	defer after.Close()
	if got := replay(after, []string{"view callers", "expandall", "sort CYCLES", "ls"}); got != want {
		t.Fatalf("snapshot poisoned by cancelled sessions\n--- shared after cancel ---\n%s\n--- clean ---\n%s", got, want)
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
