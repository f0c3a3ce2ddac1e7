package engine

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/expdb"
	"repro/internal/oracle"
)

// The session surface checked as one: scripts oracle.Generate draws over
// the command grammar, run on sessions and on oracle.Model. The root
// package's TestConformance runs the same relations on its trees; the
// tests here run them on the engine's fixtures, under -race and in the
// chaos rounds of `make chaos`.

// surface is a session as oracle drives it.
func surface(s *Session) oracle.Surface {
	return oracle.Surface{
		Do: func(line string) (string, string) {
			resp := s.Do(Request{Line: line})
			return resp.Output, resp.Err
		},
		Rows: func() []oracle.Shown { return oracle.Listing(s.VisibleRows(), s.Registry().Len(), s.Value) },
	}
}

// scriptRig is a database the relations run on: the model of a session
// over it, fresh snapshots of it and the catalog `diff other` resolves.
type scriptRig struct {
	model *oracle.Model
	open  func() *Snapshot
	cat   Catalog
}

// mappedRig is the multi-rank fixture as a mapped v3 file, diffed against
// itself. It also returns the file's path and bytes.
func mappedRig(t *testing.T) (scriptRig, string, []byte) {
	path, data := v3FixtureFile(t)
	e, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Snapshot {
		snap := mappedSnapshot(t, path)
		t.Cleanup(func() { snap.Close() })
		return snap
	}
	return scriptRig{oracle.NewModel(e, "other", diffWith(e)), open, SnapshotCatalog{"other": open()}}, path, data
}

// memRig is e in memory, diffed against other (no catalog when nil).
func memRig(e, other *expdb.Experiment) scriptRig {
	r := scriptRig{open: func() *Snapshot { return NewSnapshot(e) }}
	if other == nil {
		r.model = oracle.NewModel(e, "", nil)
		return r
	}
	r.model, r.cat = oracle.NewModel(e, "other", diffWith(other)), SnapshotCatalog{"other": NewSnapshot(other)}
	return r
}

// diffWith is the model's `diff other`: the union of the database shown,
// labelled A, and other, labelled B, as Session.Compare makes it.
func diffWith(other *expdb.Experiment) func(*expdb.Experiment) (*expdb.Experiment, error) {
	return func(shown *expdb.Experiment) (*expdb.Experiment, error) {
		res, err := diff.Diff(diff.Config{}, diff.Input{Label: "A", Exp: shown}, diff.Input{Label: "B", Exp: other})
		if err != nil {
			return nil, err
		}
		return res.Exp, nil
	}
}

// session opens a session over snap with the rig's catalog.
func (r scriptRig) session(snap *Snapshot) *Session {
	s := NewSession(snap)
	s.SetCatalog(r.cat)
	return s
}

// scripts draws n scripts of steps commands, with seeds 1 to n, each after
// the lines of prefix.
func (r scriptRig) scripts(n, steps int, prefix ...string) [][]string {
	out := make([][]string, n)
	for i := range out {
		m := r.model.Fresh()
		for _, line := range prefix {
			m.Exec(line)
		}
		out[i] = append(append([]string{}, prefix...), oracle.Generate(int64(i+1), steps, m)...)
	}
	return out
}

// alone runs each script on a session of its own over a fresh snapshot,
// checks every step against the model and returns what each printed.
func (r scriptRig) alone(t *testing.T, scripts [][]string) []string {
	t.Helper()
	out := make([]string, len(scripts))
	for i, script := range scripts {
		s := r.session(r.open())
		var err error
		out[i], err = oracle.Check(r.model.Fresh(), script, surface(s))
		s.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", i+1, err)
		}
	}
	return out
}

// shared runs the scripts interleaved by seed, each on its own session over
// one fresh snapshot (oracle.Shared).
func (r scriptRig) shared(t *testing.T, seed int64, scripts [][]string, alone []string) {
	t.Helper()
	snap := r.open()
	surfaces := make([]oracle.Surface, len(scripts))
	for i := range scripts {
		s := r.session(snap)
		defer s.Close()
		surfaces[i] = surface(s)
	}
	if err := oracle.Shared(seed, r.model, scripts, alone, surfaces); err != nil {
		t.Fatal(err)
	}
}

// concurrently runs n sessions at once over one shared snapshot, session i
// running script i mod len(scripts), and fails unless each prints what its
// script printed alone.
func (r scriptRig) concurrently(t *testing.T, n int, scripts [][]string, alone []string) {
	t.Helper()
	shared, got := r.open(), make([]string, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := r.session(shared)
			defer s.Close()
			got[i] = oracle.Replay(scripts[i%len(scripts)], surface(s).Do)
		}()
	}
	wg.Wait()
	for i := range got {
		if want := alone[i%len(scripts)]; got[i] != want {
			t.Errorf("session %d, shared, prints what script %q does not alone", i, scripts[i%len(scripts)])
		}
	}
}

// TestConcurrentSessionEquivalence is the engine's core guarantee: 32
// sessions running generated scripts at once over ONE shared mapped
// snapshot each print byte for byte what the script prints alone, on a
// snapshot of its own, where every step lists what the model does. Under
// -race it is also the hammer for any unsynchronized write to the shared
// tree, stores, registry, Callers View or mapping.
func TestConcurrentSessionEquivalence(t *testing.T) {
	rig, _, _ := mappedRig(t)
	scripts := rig.scripts(8, 30)
	rig.concurrently(t, 32, scripts, rig.alone(t, scripts))
}

// TestConcurrentSessionsRepeatedRounds: sessions that join a shared
// snapshot after earlier ones ran over it see what the first saw, in three
// rounds of eight sessions at once, each followed by a seeded
// interleaving of the same scripts.
func TestConcurrentSessionsRepeatedRounds(t *testing.T) {
	rig, _, _ := mappedRig(t)
	scripts := rig.scripts(8, 30)
	alone := rig.alone(t, scripts)
	shared := rig.open()
	rig.open = func() *Snapshot { return shared }
	for round := range int64(3) {
		rig.concurrently(t, 8, scripts, alone)
		rig.shared(t, round+1, scripts, alone)
	}
}

// TestConcurrentSessionsOverMappedSnapshot: eight sessions at once over one
// mapped snapshot, every script entering and leaving a diff of the
// database with itself, print what they print alone, and the mapped file
// is bit for bit untouched: every write goes to the heap.
func TestConcurrentSessionsOverMappedSnapshot(t *testing.T) {
	rig, path, original := mappedRig(t)
	scripts := rig.scripts(8, 30, "diff other", "expandall", "hot CYCLES", "back")
	rig.concurrently(t, 8, scripts, rig.alone(t, scripts))
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(original, after) {
		t.Fatalf("mapped database bytes changed under concurrent sessions (%v)", err)
	}
}

// TestChurnedSessionMatchesFresh: one session through a long churn of
// commands lists at every step what the model does, which keeps nothing
// of an earlier view, diff or expansion a fresh session would not.
func TestChurnedSessionMatchesFresh(t *testing.T) {
	e := expdb.New(core.Fig1Tree())
	rig := memRig(e, e)
	rig.alone(t, rig.scripts(1, 300))
}

// TestMappedSessionMatchesEager: scripts over a mapped database and over
// the same bytes decoded whole list what the model does, and print the
// same bytes.
func TestMappedSessionMatchesEager(t *testing.T) {
	rig, _, data := mappedRig(t)
	e, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	scripts := rig.scripts(4, 40)
	if !slices.Equal(rig.alone(t, scripts), memRig(e, e).alone(t, scripts)) {
		t.Fatal("scripts print differently over the database decoded whole")
	}
}

// TestCallersSessionsIsolated: sessions that open roots of the shared
// Callers View, one by one, all at once and along hot paths, interleaved,
// each list their own + markers: a root shows one until the session opens
// it, whatever the others built.
func TestCallersSessionsIsolated(t *testing.T) {
	rig := memRig(expdb.New(bushyTree(t, 2000, 7)), nil)
	scripts := rig.scripts(4, 30, "view callers")
	alone := rig.alone(t, scripts)
	for seed := range int64(3) {
		rig.shared(t, seed+1, scripts, alone)
	}
}

// TestSessionDerivedIsolation: sessions over one snapshot that register
// different formulas under the same names, interleaved, each read their
// own; the shared registry never grows and no value reaches the shared
// store.
func TestSessionDerivedIsolation(t *testing.T) {
	rig, _, _ := mappedRig(t)
	scripts := rig.scripts(4, 30)
	for i := range scripts {
		scripts[i] = append([]string{fmt.Sprintf("derived x=$0*%d", i+2), "sort x", "expandall"}, scripts[i]...)
	}
	alone := rig.alone(t, scripts)
	snap := rig.open()
	base := snap.Tree().Reg.Len()
	rig.open = func() *Snapshot { return snap }
	rig.shared(t, 1, scripts, alone)
	if n := snap.Tree().Reg.Len(); n != base {
		t.Fatalf("shared registry grew from %d to %d", base, n)
	}
	if got := snap.Tree().Root.Incl.Get(base); got != 0 {
		t.Fatalf("a session formula's value reached the shared store: %g", got)
	}
}

// TestExpansionMatchesMapModel: random scripts of every command, over all
// three views and in and out of a diff, list at every step what the model
// does, whose record of open rows is a map.
func TestExpansionMatchesMapModel(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rig := memRig(expdb.New(bushyTree(t, 300, seed)), expdb.New(bushyTree(t, 300, seed+100)))
		script := oracle.Generate(seed, 60, rig.model.Fresh())
		if _, err := oracle.Check(rig.model.Fresh(), script, surface(rig.session(rig.open()))); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// checkScript runs script on a session over tree and checks every step
// against the model.
func checkScript(t *testing.T, tree *core.Tree, script ...string) {
	t.Helper()
	rig := memRig(expdb.New(tree), nil)
	if _, err := oracle.Check(rig.model, script, surface(rig.session(rig.open()))); err != nil {
		t.Fatal(err)
	}
}
