package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// fixtureV3At builds the merged toy experiment at a given rank count and
// serializes it in the mapped (v3) format — the payload the lifecycle tests
// publish, ingest, corrupt and truncate. Different rank counts render
// differently, which is how chaos tests tell generations apart.
var fixtureMu sync.Mutex
var fixtureByRanks = map[int][]byte{}

func fixtureV3At(t *testing.T, ranks int) []byte {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if data, ok := fixtureByRanks[ranks]; ok {
		return data
	}
	fixtureByRanks[ranks] = buildToyV3(t, ranks, false)
	return fixtureByRanks[ranks]
}

// buildToyV3 runs the toy workload at a rank count and writes the merged
// database as v3 — with every rank's trace sections when traced.
func buildToyV3(t *testing.T, ranks int, traced bool) []byte {
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
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Events: sampler.DefaultEvents(spec.Period), Trace: traced})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	exp := expdb.FromMerge(res)
	if traced {
		if err := expdb.TraceRanksFromProfiles(exp, doc, profs); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := exp.WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fixtureV3(t *testing.T) []byte { return fixtureV3At(t, 2) }

// writeDB drops the fixture under the given path, atomically, as a
// published database must be written.
func writeDB(t *testing.T, path string) {
	t.Helper()
	data := fixtureV3(t)
	err := expdb.WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// render runs one session over the snapshot and returns the ls output —
// the byte-identity probe used by the lifecycle races.
func render(t *testing.T, snap *engine.Snapshot) string {
	t.Helper()
	s := engine.NewSession(snap)
	defer s.Close()
	resp := s.Do(engine.Request{Line: "ls"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	return resp.Output
}

func TestKeyValidateAndNames(t *testing.T) {
	good := []Key{
		{Service: "s3d", Ts: 0},
		{Service: "s3d", Run: "run-1", Ts: 42},
		{Service: "a.b_c-d", Run: "x9", Ts: 7},
	}
	for _, k := range good {
		if err := k.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", k, err)
		}
		name := spoolFileName(k)
		got, ok := parseSpoolFileName(name)
		if !ok || got != k {
			t.Errorf("round-trip %v -> %q -> %v ok=%v", k, name, got, ok)
		}
	}
	bad := []Key{
		{Service: "", Ts: 0},
		{Service: "has space", Ts: 0},
		{Service: "a__b", Ts: 0},
		{Service: "ok", Run: "bad/slash", Ts: 0},
		{Service: "ok", Ts: -1},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted a bad key", k)
		}
	}
	for _, name := range []string{"x.txt", "a.db", "a__b__c__d.db", "a__notanumber.db"} {
		if _, ok := parseSpoolFileName(name); ok {
			t.Errorf("parseSpoolFileName(%q) accepted a non-spool name", name)
		}
	}

	ser, ts, hasTs, err := ParseName("s3d/run1@42")
	if err != nil || ser != "s3d/run1" || ts != 42 || !hasTs {
		t.Fatalf("ParseName = %q %d %v %v", ser, ts, hasTs, err)
	}
	ser, _, hasTs, err = ParseName("s3d")
	if err != nil || ser != "s3d" || hasTs {
		t.Fatalf("ParseName bare = %q %v %v", ser, hasTs, err)
	}
	if _, _, _, err := ParseName("@12"); err == nil {
		t.Fatal("ParseName accepted an empty series")
	}
	if _, _, _, err := ParseName("s3d@twelve"); err == nil {
		t.Fatal("ParseName accepted a non-numeric timestamp")
	}
}

// TestGenerationSwap is invariant 3: a republish flips what new Acquires
// see, without touching the snapshot in-flight sessions hold.
func TestGenerationSwap(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{})
	defer c.Close()
	p1 := filepath.Join(dir, "gen1.db")
	p2 := filepath.Join(dir, "gen2.db")
	writeDB(t, p1)
	writeDB(t, p2)

	if err := c.Publish(Key{Service: "s3d", Run: "r", Ts: 1}, p1); err != nil {
		t.Fatal(err)
	}
	old, key, err := c.Acquire("s3d/r")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()
	if key.Ts != 1 {
		t.Fatalf("acquired ts %d, want 1", key.Ts)
	}
	before := render(t, old)

	// Republish: same series, newer timestamp.
	if err := c.Publish(Key{Service: "s3d", Run: "r", Ts: 2}, p2); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(Key{Service: "s3d", Run: "r", Ts: 2}, p2); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate publish: %v, want ErrDuplicate", err)
	}
	fresh, key2, err := c.Acquire("s3d/r")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	if key2.Ts != 2 {
		t.Fatalf("post-republish acquire resolved ts %d, want 2", key2.Ts)
	}
	if fresh == old {
		t.Fatal("republish did not produce a distinct generation snapshot")
	}
	// The old generation stays addressable by explicit @ts and the session's
	// retained snapshot still renders identically.
	pinned, key3, err := c.Acquire("s3d/r@1")
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Release()
	if key3.Ts != 1 || pinned != old {
		t.Fatalf("explicit @1 acquire: key %v snap-match=%v", key3, pinned == old)
	}
	if after := render(t, old); after != before {
		t.Fatal("in-flight generation's render changed across a republish")
	}

	if _, _, err := c.Acquire("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown series: %v, want ErrNotFound", err)
	}
	if _, _, err := c.Acquire("s3d/r@99"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown generation: %v, want ErrNotFound", err)
	}
}

// TestGenerationTrim: only MaxGenerations stay resolvable; trimmed ones
// lose the catalog reference but in-flight sessions are untouched.
func TestGenerationTrim(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxGenerations: 2})
	defer c.Close()
	paths := make([]string, 4)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("g%d.db", i))
		writeDB(t, paths[i])
	}
	if err := c.Publish(Key{Service: "svc", Ts: 0}, paths[0]); err != nil {
		t.Fatal(err)
	}
	held, _, err := c.Acquire("svc@0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()
	for i := 1; i < 4; i++ {
		if err := c.Publish(Key{Service: "svc", Ts: int64(i)}, paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	gens := c.Generations("svc")
	if len(gens) != 2 || gens[0].Ts != 2 || gens[1].Ts != 3 {
		t.Fatalf("generations after trim = %v, want ts 2,3", gens)
	}
	if _, _, err := c.Acquire("svc@0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("trimmed generation still resolvable: %v", err)
	}
	// The trimmed generation's snapshot must still be fully usable by the
	// session that holds it.
	if out := render(t, held); out == "" {
		t.Fatal("trimmed generation failed to render")
	}
}

// TestLRUEviction is invariant 2 in its steady-state form: a budget of two
// databases forces the least-recently-used open snapshot out as a third is
// opened, while acquired references keep rendering.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	size := int64(len(fixtureV3(t)))
	c := New(Config{MemBudget: 2 * size})
	defer c.Close()
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("svc%d.db", i))
		writeDB(t, p)
		if err := c.Publish(Key{Service: fmt.Sprintf("svc%d", i), Ts: 1}, p); err != nil {
			t.Fatal(err)
		}
	}
	s0, _, err := c.Acquire("svc0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.AcquireRelease("svc1"); err != nil {
		t.Fatal(err)
	}
	// Opening svc2 exceeds the budget; svc0 — least recently used — is the
	// victim even though the caller still holds a reference: eviction only
	// drops the catalog's, so the held snapshot must keep working.
	if _, _, err := c.AcquireRelease("svc2"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under budget pressure: %+v", st)
	}
	if st.OpenBytes > 2*size {
		t.Fatalf("open bytes %d exceed budget %d", st.OpenBytes, 2*size)
	}
	if out := render(t, s0); out == "" {
		t.Fatal("held snapshot failed to render after eviction pressure")
	}

	// Re-acquiring the evicted series re-opens from disk: a distinct
	// snapshot, while the held one lives on independently.
	again, _, err := c.Acquire("svc0")
	if err != nil {
		t.Fatal(err)
	}
	if again == s0 {
		t.Fatal("re-acquire after eviction returned the evicted snapshot")
	}
	if out := render(t, again); out == "" {
		t.Fatal("re-opened snapshot failed to render")
	}
	again.Release()
	s0.Release()
	if st := c.Stats(); st.Opens < 4 {
		t.Fatalf("opens = %d, want >= 4 (3 first opens + 1 re-open)", st.Opens)
	}
}

// AcquireRelease is a test helper: resolve, touch, release immediately.
func (c *Catalog) AcquireRelease(name string) (*engine.Snapshot, Key, error) {
	snap, key, err := c.Acquire(name)
	if err != nil {
		return nil, key, err
	}
	snap.Release()
	return snap, key, nil
}

// TestResidentAccounting: resident bytes reflect true unmap, which happens
// at the LAST release — after both the catalog evicts and the holder lets
// go, in either order.
func TestResidentAccounting(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "svc.db")
	writeDB(t, p)
	c := New(Config{})
	defer c.Close()
	if err := c.Publish(Key{Service: "svc", Ts: 1}, p); err != nil {
		t.Fatal(err)
	}
	snap, _, err := c.Acquire("svc")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ResidentBytes; got == 0 {
		t.Fatal("resident bytes zero while a snapshot is open")
	}
	c.EvictAll()
	// The catalog dropped its reference; the acquired one keeps the mapping.
	if got := c.Stats().ResidentBytes; got == 0 {
		t.Fatal("resident bytes zero while a session still holds the snapshot")
	}
	if st := c.Stats(); st.Open != 0 || st.OpenBytes != 0 {
		t.Fatalf("open accounting after EvictAll: %+v", st)
	}
	snap.Release() // last reference: unmap happens here
	if got := c.Stats().ResidentBytes; got != 0 {
		t.Fatalf("resident bytes %d after last release, want 0", got)
	}
}

func TestIngestLifecycle(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	defer c.Close()
	data := fixtureV3(t)

	key := Key{Service: "s3d", Run: "run1", Ts: 10}
	if err := c.Ingest(key, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(key, bytes.NewReader(data)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate ingest: %v, want ErrDuplicate", err)
	}
	snap, got, err := c.Acquire("s3d/run1")
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatalf("acquired %v, want %v", got, key)
	}
	if out := render(t, snap); out == "" {
		t.Fatal("ingested database failed to render")
	}
	snap.Release()

	// Corrupt payloads are rejected with a typed IngestError, leave no file
	// behind, and the live generation keeps serving.
	for name, mangle := range map[string]func([]byte) []byte{
		"smashed-span": func(b []byte) []byte {
			// A 256-byte XOR at midfile: single-byte flips can land in
			// alignment padding no checksum covers, a span cannot.
			bad := append([]byte(nil), b...)
			for i := len(bad) / 2; i < len(bad)/2+256 && i < len(bad); i++ {
				bad[i] ^= 0x40
			}
			return bad
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"empty":     func(b []byte) []byte { return nil },
	} {
		bad := mangle(data)
		err := c.Ingest(Key{Service: "s3d", Run: "run1", Ts: 11}, bytes.NewReader(bad))
		var ie *IngestError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: ingest error = %v, want IngestError", name, err)
		}
		if _, serr := os.Stat(filepath.Join(dir, spoolFileName(Key{Service: "s3d", Run: "run1", Ts: 11}))); !os.IsNotExist(serr) {
			t.Fatalf("%s: rejected ingest left a file behind", name)
		}
		if _, k, aerr := c.AcquireRelease("s3d/run1"); aerr != nil || k != key {
			t.Fatalf("%s: live generation damaged by rejected ingest: %v %v", name, k, aerr)
		}
	}
	st := c.Stats()
	if st.Ingested != 1 || st.IngestErrors != 3 {
		t.Fatalf("ingest counters = %d/%d, want 1/3", st.Ingested, st.IngestErrors)
	}

	// Restart: a fresh catalog over the same directory reloads the
	// published generation.
	c2 := New(Config{Dir: dir})
	defer c2.Close()
	n, err := c2.LoadDir()
	if err != nil || n != 1 {
		t.Fatalf("LoadDir = %d, %v, want 1", n, err)
	}
	if _, k, err := c2.AcquireRelease("s3d/run1"); err != nil || k != key {
		t.Fatalf("reloaded catalog: %v %v", k, err)
	}
}

// TestValidateRejectsTraceDamage: the ingest gate is strict about every
// section, so one flipped byte in any trace, pyramid or tracemeta section
// — damage the serving path degrades around — must refuse the file, both
// from ValidateFile and through Ingest.
func TestValidateRejectsTraceDamage(t *testing.T) {
	data := buildToyV3(t, 2, true)
	// The v3 trailer ends the file: { indexOff u64, count u64, ... }; each
	// 32-byte index entry is { kind u8, ..., offset u64 @8, length u64 @16 }.
	tr := data[len(data)-32:]
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	count := binary.LittleEndian.Uint64(tr[8:16])
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	defer c.Close()
	flipped := 0
	for i := uint64(0); i < count; i++ {
		en := data[indexOff+32*i:]
		if kind := en[0]; kind < 8 || kind > 10 { // trace, pyramid, tracemeta
			continue
		}
		off := binary.LittleEndian.Uint64(en[8:16])
		length := binary.LittleEndian.Uint64(en[16:24])
		bad := append([]byte(nil), data...)
		bad[off+length/2] ^= 0x10
		flipped++

		path := filepath.Join(t.TempDir(), "traced.db")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ValidateFile(path); err == nil {
			t.Errorf("section %d (kind %d): ValidateFile accepted a damaged trace", i, en[0])
		}
		var ie *IngestError
		if err := c.Ingest(Key{Service: "tr", Ts: int64(i)}, bytes.NewReader(bad)); !errors.As(err, &ie) {
			t.Errorf("section %d (kind %d): ingest error = %v, want IngestError", i, en[0], err)
		}
	}
	if flipped < 3 {
		t.Fatalf("only %d trace-kind sections in a traced 2-rank database", flipped)
	}
	if err := c.Ingest(Key{Service: "tr", Ts: 1000}, bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine traced database refused: %v", err)
	}
}

func TestScanSpool(t *testing.T) {
	spool := t.TempDir()
	c := New(Config{Dir: t.TempDir()})
	defer c.Close()
	data := fixtureV3(t)

	good := filepath.Join(spool, "svc__run__5.db")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(spool, "svc__run__6.db")
	mangled := append([]byte(nil), data...)
	for i := len(mangled) / 2; i < len(mangled)/2+256 && i < len(mangled); i++ {
		mangled[i] ^= 0x01
	}
	if err := os.WriteFile(bad, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	// Stranger files are ignored, not eaten.
	stranger := filepath.Join(spool, "notes.txt")
	if err := os.WriteFile(stranger, []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := c.ScanSpool(spool)
	if n != 1 {
		t.Fatalf("ScanSpool ingested %d, want 1", n)
	}
	if err == nil {
		t.Fatal("ScanSpool swallowed the corrupt file's error")
	}
	if _, serr := os.Stat(good); !os.IsNotExist(serr) {
		t.Fatal("ingested spool file was not removed")
	}
	if _, serr := os.Stat(bad + ".bad"); serr != nil {
		t.Fatal("corrupt spool file was not quarantined as .bad")
	}
	if _, serr := os.Stat(stranger); serr != nil {
		t.Fatal("stranger file disappeared from the spool")
	}
	if _, _, err := c.AcquireRelease("svc/run@5"); err != nil {
		t.Fatal(err)
	}
	// A second scan is a no-op: the .bad file no longer parses as a spool name.
	if n, _ := c.ScanSpool(spool); n != 0 {
		t.Fatalf("second scan ingested %d, want 0", n)
	}
}

func TestPinAndClose(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "svc.db")
	writeDB(t, p)
	snap, err := engine.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{MemBudget: 1}) // absurd budget: pins must survive it anyway
	if err := c.Pin("before", snap); err != nil {
		t.Fatal(err)
	}
	snap.Release() // catalog's pin keeps it alive
	if err := c.Pin("before", snap); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate pin: %v, want ErrDuplicate", err)
	}
	if err := c.Pin("x@3", snap); err == nil {
		t.Fatal("pin with @ts accepted")
	}
	got, _, err := c.Acquire("before")
	if err != nil {
		t.Fatal(err)
	}
	if got != snap {
		t.Fatal("pinned acquire returned a different snapshot")
	}
	if out := render(t, got); out == "" {
		t.Fatal("pinned snapshot failed to render")
	}
	got.Release()
	c.EvictAll() // must not touch pins
	if _, _, err := c.AcquireRelease("before"); err != nil {
		t.Fatalf("pin evicted by EvictAll: %v", err)
	}
	c.Close()
	if _, _, err := c.Acquire("before"); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v, want ErrClosed", err)
	}
	if err := c.Publish(Key{Service: "x", Ts: 0}, p); !errors.Is(err, ErrClosed) {
		t.Fatalf("publish after close: %v, want ErrClosed", err)
	}
	if err := c.Ingest(Key{Service: "x", Ts: 0}, bytes.NewReader(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}

// TestOpenErrorTyped: a generation whose backing file is damaged after
// publish (the validate-at-ingest gate was bypassed) surfaces a typed
// OpenError at Acquire, and the catalog caches nothing for it.
func TestOpenErrorTyped(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "svc.db")
	data := fixtureV3(t)
	mangled := append([]byte(nil), data...)
	// Smash the index region so the open itself fails.
	copy(mangled[8:], []byte("garbage!"))
	if err := os.WriteFile(p, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	defer c.Close()
	if err := c.Publish(Key{Service: "svc", Ts: 1}, p); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.Acquire("svc")
	var oe *OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("acquire over damaged file: %v, want OpenError", err)
	}
	if st := c.Stats(); st.Open != 0 {
		t.Fatalf("damaged generation counted as open: %+v", st)
	}
	// Repair the file on disk; the next acquire succeeds.
	writeDB(t, p)
	snap, _, err := c.Acquire("svc")
	if err != nil {
		t.Fatalf("acquire after repair: %v", err)
	}
	snap.Release()
}

// TestPublishOutOfOrderKeepsNewest: "latest" is a timestamp promise, not an
// arrival-order one. A generation published late (out-of-order spool
// delivery, or LoadDir's lexicographic scan putting "1000" before "999")
// must slot in behind the newer one, and history trims by timestamp.
func TestPublishOutOfOrderKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxGenerations: 2})
	defer c.Close()
	paths := map[int64]string{}
	for _, ts := range []int64{999, 1000, 998} {
		p := filepath.Join(dir, fmt.Sprintf("g%d.db", ts))
		writeDB(t, p)
		paths[ts] = p
	}
	if err := c.Publish(Key{Service: "svc", Ts: 1000}, paths[1000]); err != nil {
		t.Fatal(err)
	}
	// Late arrival of an older run must not displace ts=1000 from "latest".
	if err := c.Publish(Key{Service: "svc", Ts: 999}, paths[999]); err != nil {
		t.Fatal(err)
	}
	if _, k, err := c.AcquireRelease("svc"); err != nil || k.Ts != 1000 {
		t.Fatalf("after late publish, latest = %v (%v), want ts 1000", k, err)
	}
	if gens := c.Generations("svc"); len(gens) != 2 || gens[0].Ts != 999 || gens[1].Ts != 1000 {
		t.Fatalf("generations = %v, want ascending ts 999,1000", gens)
	}
	// An even older straggler overflows MaxGenerations and must be the one
	// trimmed — by timestamp, not by arrival.
	if err := c.Publish(Key{Service: "svc", Ts: 998}, paths[998]); err != nil {
		t.Fatal(err)
	}
	if gens := c.Generations("svc"); len(gens) != 2 || gens[0].Ts != 999 || gens[1].Ts != 1000 {
		t.Fatalf("generations after straggler = %v, want ts 999,1000", gens)
	}
	if _, k, err := c.AcquireRelease("svc"); err != nil || k.Ts != 1000 {
		t.Fatalf("latest after straggler = %v (%v), want ts 1000", k, err)
	}
}

// TestLoadDirOutOfOrderTimestamps: mixed-width timestamps make os.ReadDir's
// lexicographic order disagree with numeric order ("svc__1000.db" sorts
// before "svc__999.db"); a restart must still resolve the numerically
// newest generation.
func TestLoadDirOutOfOrderTimestamps(t *testing.T) {
	dir := t.TempDir()
	for _, ts := range []int64{999, 1000} {
		writeDB(t, filepath.Join(dir, fmt.Sprintf("svc__%d.db", ts)))
	}
	c := New(Config{Dir: dir})
	defer c.Close()
	n, err := c.LoadDir()
	if err != nil || n != 2 {
		t.Fatalf("LoadDir = %d, %v", n, err)
	}
	if _, k, err := c.AcquireRelease("svc"); err != nil || k.Ts != 1000 {
		t.Fatalf("latest after LoadDir = %v (%v), want ts 1000", k, err)
	}
}

// TestTrimSkipsPinnedHead: a pinned entry sitting at the head of a series
// is not history — trimming must skip it and keep shedding the unpinned
// tail instead of wedging and accumulating generations unboundedly.
func TestTrimSkipsPinnedHead(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "pin.db")
	writeDB(t, p)
	snap, err := engine.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	c := New(Config{MaxGenerations: 2})
	defer c.Close()
	if err := c.Pin("svc", snap); err != nil {
		t.Fatal(err)
	}
	for ts := int64(1); ts <= 5; ts++ {
		gp := filepath.Join(dir, fmt.Sprintf("g%d.db", ts))
		writeDB(t, gp)
		if err := c.Publish(Key{Service: "svc", Ts: ts}, gp); err != nil {
			t.Fatal(err)
		}
	}
	gens := c.Generations("svc")
	if len(gens) != 3 || gens[0].Ts != 0 || gens[1].Ts != 4 || gens[2].Ts != 5 {
		t.Fatalf("generations = %v, want pinned ts 0 + unpinned ts 4,5", gens)
	}
	// The pin survives and still resolves; the series' latest is the newest
	// unpinned publish.
	if got, _, err := c.AcquireRelease("svc@0"); err != nil || got != snap {
		t.Fatalf("pinned acquire = %v (%v), want the pinned snapshot", got, err)
	}
	if _, k, err := c.AcquireRelease("svc"); err != nil || k.Ts != 5 {
		t.Fatalf("latest = %v (%v), want ts 5", k, err)
	}
}

// TestConcurrentIngestSameKey: two ingests of one key race; exactly one
// publishes, the losers get ErrDuplicate, and — the destructive half of
// the old race — the losers must not have replaced or deleted the file
// backing the winner's published generation.
func TestConcurrentIngestSameKey(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{Dir: dir})
	defer c.Close()
	data := fixtureV3(t)
	key := Key{Service: "svc", Ts: 7}

	const racers = 8
	errs := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.Ingest(key, bytes.NewReader(data))
		}()
	}
	wg.Wait()
	close(errs)
	won, dups := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			won++
		case errors.Is(err, ErrDuplicate):
			dups++
		default:
			t.Fatalf("concurrent ingest: %v", err)
		}
	}
	if won != 1 || dups != racers-1 {
		t.Fatalf("outcomes = %d published, %d duplicates, want 1/%d", won, dups, racers-1)
	}
	// The published generation must still open — its backing file intact,
	// not deleted or replaced by a losing racer's cleanup.
	snap, k, err := c.Acquire("svc")
	if err != nil || k != key {
		t.Fatalf("acquire after race = %v (%v)", k, err)
	}
	if out := render(t, snap); out == "" {
		t.Fatal("post-race generation failed to render")
	}
	snap.Release()
	if err := ValidateFile(filepath.Join(dir, spoolFileName(key))); err != nil {
		t.Fatalf("published file damaged by losing racer: %v", err)
	}
	if st := c.Stats(); st.Ingested != 1 || st.IngestErrors != 0 {
		t.Fatalf("stats after race = %+v, want 1 ingested, 0 errors", st)
	}
}
