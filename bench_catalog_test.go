package repro

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expdb"
)

// Catalog-scale session benchmark: the fleet claim behind the lifecycle
// layer is that serving sessions over many databases costs the same per
// session as serving over one — the catalog adds a lock and a map lookup,
// not per-database overhead. BenchmarkCatalogSessions measures one full
// session (acquire by name, open a session, run the hot-path query,
// close, release) over a warm catalog of 1 vs 100 published databases;
// allocs/op must stay flat (±10%) between the two. Baseline numbers live
// in BENCH_catalog.json.

// catalogBenchDir writes the fixed-seed synthetic CCT (v3 format) once
// and publishes it under n distinct series names in a fresh catalog.
func catalogBench(b *testing.B, n int) *catalog.Catalog {
	b.Helper()
	e := expdb.New(syntheticCCT(2_000, 17))
	var buf bytes.Buffer
	if err := e.WriteBinaryV3(&buf); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	c := catalog.New(catalog.Config{})
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("svc%03d__1.db", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		if err := c.Publish(catalog.Key{Service: fmt.Sprintf("svc%03d", i), Ts: 1}, path); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the catalog: every generation open and cached, as a serving
	// steady state would have it (the benchmark measures session cost over
	// a warm catalog, not open/mmap cost — BenchmarkMappedOpen covers that).
	for i := 0; i < n; i++ {
		snap, _, err := c.Acquire(fmt.Sprintf("svc%03d", i))
		if err != nil {
			b.Fatal(err)
		}
		snap.Release()
	}
	return c
}

func benchCatalogSessions(b *testing.B, n int) {
	c := catalogBench(b, n)
	defer c.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("svc%03d", i%n)
		snap, _, err := c.Acquire(name)
		if err != nil {
			b.Fatal(err)
		}
		s := engine.NewSession(snap)
		if resp := s.Do(engine.Request{Line: "hot CYCLES"}); resp.Err != "" || resp.Output == "" {
			s.Close()
			b.Fatalf("hot CYCLES over %s: err=%s", name, resp.Err)
		}
		s.Close()
		snap.Release()
	}
}

func BenchmarkCatalogSessions(b *testing.B) {
	for _, n := range []int{1, 100} {
		b.Run(fmt.Sprintf("dbs=%d", n), func(b *testing.B) {
			benchCatalogSessions(b, n)
		})
	}
}
