package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/expdb"
)

// Open-path benchmarks for the v3 zero-copy layout: opening a database
// from disk and answering the first query from cold. The v2 open must
// decode the whole file — O(file) — before the first scope is visible; the
// mapped v3 open parses the fixed-width section index and nothing else —
// O(index) — and faults column slabs in on first touch.
// Baseline numbers live in BENCH_open.json.

// openBenchFiles serializes the 100k-scope synthetic CCT in both formats
// into a temp dir and returns the two paths. The tree is fixed-seed, so
// both files — and the open-path allocation counts — are deterministic.
func openBenchFiles(b *testing.B) (v2path, v3path string) {
	b.Helper()
	e := expdb.New(syntheticCCT(100_000, 13))
	dir := b.TempDir()
	v2path = filepath.Join(dir, "synth.v2.db")
	v3path = filepath.Join(dir, "synth.v3.db")
	for _, f := range []struct {
		path  string
		write func(*bytes.Buffer) error
	}{
		{v2path, func(buf *bytes.Buffer) error { return e.WriteBinary(buf) }},
		{v3path, func(buf *bytes.Buffer) error { return e.WriteBinaryV3(buf) }},
	} {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(f.path, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return v2path, v3path
}

// BenchmarkMappedOpen measures the O(index) open: map the file, parse the
// trailer and section index, and return — no tree decode, no column reads.
func BenchmarkMappedOpen(b *testing.B) {
	_, v3path := openBenchFiles(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, err := expdb.OpenMapped(v3path)
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyOpenSynthetic is the v2 baseline on the same database,
// opened the way the tools open it (engine.Open): every section is decoded,
// the tree section — base values inline — scope by scope, and Equations 1
// and 2 are recomputed. (The name is from when this path skipped the
// overrides and provenance sections; on this database that saved nothing.)
func BenchmarkLazyOpenSynthetic(b *testing.B) {
	v2path, _ := openBenchFiles(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Open(v2path); err != nil {
			b.Fatal(err)
		}
	}
}

// coldQuery opens a session over the snapshot, runs the paper's hot path
// analysis — the canonical "first question" a user asks — and closes.
func coldQuery(b *testing.B, snap *engine.Snapshot) {
	s := engine.NewSession(snap)
	if resp := s.Do(engine.Request{Line: "hot CYCLES"}); resp.Err != "" || resp.Output == "" {
		s.Close()
		b.Fatalf("hot CYCLES: %q err=%s", resp.Output, resp.Err)
	}
	s.Close()
}

// BenchmarkColdFirstQueryMapped measures time-to-first-answer on the
// mapped path: open, decode metadata, fault in the queried column slabs
// (checksummed on first touch), run the hot path, release the mapping.
func BenchmarkColdFirstQueryMapped(b *testing.B) {
	_, v3path := openBenchFiles(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap, err := engine.Open(v3path)
		if err != nil {
			b.Fatal(err)
		}
		coldQuery(b, snap)
		if err := snap.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdFirstQueryLazy is the v2 time-to-first-answer baseline over
// the same synthetic database.
func BenchmarkColdFirstQueryLazy(b *testing.B) {
	v2path, _ := openBenchFiles(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap, err := engine.Open(v2path)
		if err != nil {
			b.Fatal(err)
		}
		coldQuery(b, snap)
	}
}
