package engine

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// tracedDBPath writes a v3 database with trace sections for the toy
// workload (deterministic: fixed program, seed and periods).
func tracedDBPath(t *testing.T, nranks int) string {
	t.Helper()
	spec, err := workloads.ByName("toy")
	if err != nil {
		t.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{
		NRanks: nranks,
		Events: sampler.DefaultEvents(spec.Period),
		Trace:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	e := expdb.FromMerge(res)
	if err := expdb.TraceRanksFromProfiles(e, doc, profs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traced.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBinaryV3(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenTrace locks the trace command's rendered canvas against a
// golden file. Regenerate deliberately with
// `go test ./internal/engine -run TestGoldenTrace -update`.
func TestGoldenTrace(t *testing.T) {
	sn, err := Open(tracedDBPath(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	s := NewSession(sn)
	defer s.Close()

	resp := s.Do(Request{Line: "trace 64 3"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	got := resp.Output

	path := filepath.Join("testdata", "golden_trace.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTraceWithoutData: the command degrades to a user error on databases
// without trace sections.
func TestTraceWithoutData(t *testing.T) {
	s := NewSession(NewSnapshot(mergedFixture(t)))
	defer s.Close()
	resp := s.Do(Request{Line: "trace"})
	if resp.Err == "" || !strings.Contains(resp.Err, "no trace data") {
		t.Fatalf("want a no-trace-data error, got %q / %q", resp.Err, resp.Output)
	}
}

// TestConcurrentTraceRenderEquivalence: 8 sessions over ONE shared mapped
// snapshot render trace views concurrently (interleaved with metric
// queries); each transcript must be
// byte-identical to the same stream replayed in isolation. Under -race
// this doubles as the shared-mapping hazard hammer for the trace path.
func TestConcurrentTraceRenderEquivalence(t *testing.T) {
	path := tracedDBPath(t, 4)
	streams := make([][]string, 8)
	for i := range streams {
		w := 16 + 8*i
		streams[i] = []string{
			"trace",
			"expandall",
			"trace " + itoa(w) + " 4",
			"trace " + itoa(w) + " 2 0 2000",
			"sort CYCLES",
			"trace 32",
		}
	}

	// Ground truth: isolated replays, each with its own mapping.
	want := make([]string, len(streams))
	for i, stream := range streams {
		sn, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(sn)
		want[i] = replay(s, stream)
		s.Close()
		sn.Close()
	}
	for i, w := range want {
		if !strings.Contains(w, "rank ") {
			t.Fatalf("stream %d rendered no trace rows:\n%s", i, w)
		}
	}

	shared, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSession(shared)
			got[i] = replay(s, streams[i])
			s.Close()
		}(i)
	}
	wg.Wait()
	if err := shared.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range streams {
		if got[i] != want[i] {
			t.Fatalf("session %d diverged from isolated replay:\n--- got ---\n%s\n--- want ---\n%s",
				i, got[i], want[i])
		}
	}
}
