package catalog

// Live-serving chaos: these tests drive the catalog's full lifecycle —
// republish, eviction, on-disk rot, rejection sweeps — under concurrent
// query load, and are the core of `make chaos` (which runs them under
// -race). The invariants they enforce are the package's three: never a
// torn database, never an unmap under a reader, generations swap
// atomically.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultio"
)

// TestChaosLifecycleUnderLoad is the headline race: 8 query workers
// acquire, render and release across 3 series while a republisher swaps
// every series to a new generation mid-flight and an evictor strips the
// catalog's references. Every render must be byte-identical to the
// reference render for the generation the worker actually acquired — a
// worker holding ts=1 must never observe ts=2 bytes or a torn mix — and
// when the last reference drops, resident accounting must hit zero: the
// munmap happened at last release, not at eviction.
func TestChaosLifecycleUnderLoad(t *testing.T) {
	dir := t.TempDir()
	genA := fixtureV3At(t, 2)
	genB := fixtureV3At(t, 3)
	if bytes.Equal(genA, genB) {
		t.Fatal("fixture variants are identical; the swap test would prove nothing")
	}

	const nSeries = 3
	// A budget of ~1.5 databases over 3 series keeps eviction constantly
	// active while queries run.
	c := New(Config{Dir: dir, MemBudget: int64(len(genA)) * 3 / 2})
	defer c.Close()

	writeVariant := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for i := 0; i < nSeries; i++ {
		p := writeVariant(fmt.Sprintf("seed%d.db", i), genA)
		if err := c.Publish(Key{Service: fmt.Sprintf("svc%d", i), Ts: 1}, p); err != nil {
			t.Fatal(err)
		}
	}

	// Reference renders, one per generation, computed in isolation.
	wantByTs := map[int64]string{}
	for ts, data := range map[int64][]byte{1: genA, 2: genB} {
		p := writeVariant(fmt.Sprintf("ref%d.db", ts), data)
		snap, err := engine.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		wantByTs[ts] = render(t, snap)
		snap.Release()
	}
	if wantByTs[1] == wantByTs[2] {
		t.Fatal("generation renders are indistinguishable")
	}

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	errc := make(chan error, workers+2)
	start := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("svc%d", (w+i)%nSeries)
				snap, key, err := c.Acquire(name)
				if err != nil {
					errc <- fmt.Errorf("worker %d: acquire %s: %w", w, name, err)
					return
				}
				want, ok := wantByTs[key.Ts]
				if !ok {
					snap.Release()
					errc <- fmt.Errorf("worker %d: acquired unexpected generation %s", w, key)
					return
				}
				s := engine.NewSession(snap)
				resp := s.Do(engine.Request{Line: "ls"})
				s.Close()
				snap.Release()
				if resp.Err != "" {
					errc <- fmt.Errorf("worker %d: render %s: %s", w, key, resp.Err)
					return
				}
				if resp.Output != want {
					errc <- fmt.Errorf("worker %d: render of %s diverged from its generation's reference", w, key)
					return
				}
			}
		}(w)
	}

	// The republisher swaps every series to generation B while queries run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < nSeries; i++ {
			p := writeVariant(fmt.Sprintf("swap%d.db", i), genB)
			if err := c.Publish(Key{Service: fmt.Sprintf("svc%d", i), Ts: 2}, p); err != nil {
				errc <- fmt.Errorf("republish svc%d: %w", i, err)
				return
			}
		}
	}()

	// The evictor strips catalog references repeatedly; sessions holding
	// acquired snapshots must be unaffected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 20; i++ {
			c.EvictAll()
		}
	}()

	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := c.Stats()
	if st.Opens == 0 {
		t.Fatal("chaos run opened nothing")
	}
	// All references are gone: dropping the catalog's own must take
	// resident bytes to zero — the mmaps were held exactly as long as a
	// reader existed, no longer.
	c.EvictAll()
	if got := c.Stats().ResidentBytes; got != 0 {
		t.Fatalf("resident bytes %d after last release, want 0 (leaked mapping)", got)
	}
	t.Logf("chaos stats: %+v", st)
}

// TestChaosIngestRejectionSweep replays the faultio damage matrix against
// the ingest gate: truncations at many depths and corruption spans at many
// offsets must all be rejected with a typed IngestError, leave no file in
// the catalog directory, and never disturb the series' live generation.
func TestChaosIngestRejectionSweep(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	defer c.Close()
	data := fixtureV3(t)

	good := Key{Service: "svc", Run: "r", Ts: 1}
	if err := c.Ingest(good, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	var payloads []struct {
		name string
		data []byte
	}
	for _, frac := range []int{0, 1, 8, 2} { // empty, 1/1, cut at 1/8 and 1/2
		n := 0
		if frac > 0 {
			n = len(data) / frac
		}
		if n == len(data) {
			continue
		}
		payloads = append(payloads, struct {
			name string
			data []byte
		}{fmt.Sprintf("truncated-to-%d", n), faultio.Truncate(data, n)})
	}
	for i, off := range []int{16, len(data) / 4, len(data) / 2, 3 * len(data) / 4, len(data) - 300} {
		payloads = append(payloads, struct {
			name string
			data []byte
		}{fmt.Sprintf("corrupt-span-at-%d", off), faultio.CorruptSpan(data, off, 256, uint64(i+1))})
	}

	rejected := 0
	for i, p := range payloads {
		key := Key{Service: "svc", Run: "r", Ts: int64(100 + i)}
		err := c.Ingest(key, bytes.NewReader(p.data))
		var ie *IngestError
		if !errors.As(err, &ie) {
			t.Errorf("%s: err = %v, want IngestError", p.name, err)
			continue
		}
		rejected++
		if _, serr := os.Stat(filepath.Join(dir, spoolFileName(key))); !os.IsNotExist(serr) {
			t.Errorf("%s: rejected ingest left a file", p.name)
		}
	}
	if rejected != len(payloads) {
		t.Fatalf("rejected %d/%d damaged payloads", rejected, len(payloads))
	}
	// The live generation is untouched by the whole sweep.
	snap, key, err := c.Acquire("svc/r")
	if err != nil || key != good {
		t.Fatalf("live generation after sweep: %v %v", key, err)
	}
	if out := render(t, snap); out == "" {
		t.Fatal("live generation failed to render after sweep")
	}
	snap.Release()
	if st := c.Stats(); st.IngestErrors != uint64(len(payloads)) || st.Generations != 1 {
		t.Fatalf("stats after sweep: %+v", st)
	}
}

// TestChaosRotAfterEviction damages a published file on disk after its
// generation is evicted AND the last reader has released — the only safe
// moment for in-place damage, because a live mmap of the inode would make
// truncation undefined behavior (that hazard is exactly why the publish
// protocol forbids rewriting published files). The next Acquire must fail
// with a typed OpenError, and a healthy republish must restore service.
func TestChaosRotAfterEviction(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	defer c.Close()
	data := fixtureV3(t)
	path := filepath.Join(dir, "svc__1.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(Key{Service: "svc", Ts: 1}, path); err != nil {
		t.Fatal(err)
	}
	held, _, err := c.Acquire("svc")
	if err != nil {
		t.Fatal(err)
	}
	before := render(t, held)
	held.Release()

	// Evict (drops the last reference, unmapping the file), then rot it:
	// truncate to half and scribble the head.
	c.EvictAll()
	if got := c.Stats().ResidentBytes; got != 0 {
		t.Fatalf("mapping still resident (%d bytes); rotting now would be UB", got)
	}
	if err := faultio.TruncateFile(path, int64(len(data))/2); err != nil {
		t.Fatal(err)
	}
	if err := faultio.CorruptFileSpan(path, 8, 64, 7); err != nil {
		t.Fatal(err)
	}

	_, _, err = c.Acquire("svc")
	var oe *OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("acquire over rotted file: %v, want OpenError", err)
	}

	// A healthy republish under a new timestamp restores service.
	p2 := filepath.Join(dir, "svc__2.db")
	if err := os.WriteFile(p2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(Key{Service: "svc", Ts: 2}, p2); err != nil {
		t.Fatal(err)
	}
	snap, key, err := c.Acquire("svc")
	if err != nil || key.Ts != 2 {
		t.Fatalf("acquire after republish: %v %v", key, err)
	}
	if out := render(t, snap); out != before {
		t.Fatal("republished generation renders differently from the original data")
	}
	snap.Release()
}

// TestChaosSharedFlatView hammers the Flat View over a shared snapshot:
// rounds of 16 concurrent sessions run Flat View scripts over one acquired
// snapshot, each session building its own view's module, file and
// procedure rows and, at a hot path or a flatten past the procedures, the
// rows below them, all from the one tree; halfway through, the catalog
// evicts the snapshot. Every transcript must equal the same script replayed
// over a private open of the database.
func TestChaosSharedFlatView(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "svc__1.db")
	if err := os.WriteFile(path, fixtureV3(t), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{Dir: dir})
	defer c.Close()
	if err := c.Publish(Key{Service: "svc", Ts: 1}, path); err != nil {
		t.Fatal(err)
	}

	scripts := [][]string{
		{"view flat", "ls", "flatten", "ls", "hot CYCLES", "ls"},
		{"view flat", "hot CYCLES", "flatten", "flatten", "ls", "unflatten", "ls"},
		{"view flat", "sort CYCLES:excl", "ls", "view cc", "ls", "view flat", "hot CYCLES"},
		{"hot CYCLES", "view flat", "flatten", "hot CYCLES", "ls"},
	}
	replay := func(snap *engine.Snapshot, script []string) string {
		s := engine.NewSession(snap)
		defer s.Close()
		var out strings.Builder
		for _, line := range script {
			resp := s.Do(engine.Request{Line: line})
			out.WriteString(resp.Output)
			if resp.Err != "" {
				fmt.Fprintf(&out, "error: %s\n", resp.Err)
			}
		}
		return out.String()
	}
	want := make([]string, len(scripts))
	for i, script := range scripts {
		snap, err := engine.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = replay(snap, script)
		snap.Release()
		if strings.Contains(want[i], "error:") {
			t.Fatalf("script %d fails in isolation:\n%s", i, want[i])
		}
	}

	snap, _, err := c.Acquire("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Each round opens 16 sessions at once and closes them all.
	const workers, rounds = 16, 8
	errc := make(chan error, workers*rounds)
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			c.EvictAll()
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				i := (w + r) % len(scripts)
				if got := replay(snap, scripts[i]); got != want[i] {
					errc <- fmt.Errorf("round %d worker %d: script %d diverged from its isolated replay\n--- shared ---\n%s\n--- isolated ---\n%s", r, w, i, got, want[i])
				}
			}(w)
		}
		wg.Wait()
	}
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
