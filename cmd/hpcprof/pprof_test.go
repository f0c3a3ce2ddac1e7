package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/metric"
)

// TestPprofBridge drives the CLI end to end: import a real Go heap
// profile, open the resulting CPDB3, export it back to pprof, re-import,
// and check the two databases are byte-identical (the lossless round
// trip).
func TestPprofBridge(t *testing.T) {
	dir := t.TempDir()
	pb := filepath.Join(dir, "heap.pb.gz")
	// Allocate enough that the heap profiler (one sample per ~512 KiB)
	// certainly recorded stacks.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		t.Fatal(err)
	}
	_ = sink
	if err := os.WriteFile(pb, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	db1 := filepath.Join(dir, "heap.db")
	if err := run([]string{"-pprof", pb, "-o", db1}); err != nil {
		t.Fatal(err)
	}
	sn, err := engine.Open(db1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sn.Tree().Root.Children) == 0 {
		sn.Release()
		t.Fatal("imported database has no scopes")
	}
	sn.Release()

	pb2 := filepath.Join(dir, "heap2.pb.gz")
	if err := run([]string{"-export-pprof", pb2, db1}); err != nil {
		t.Fatal(err)
	}
	db2 := filepath.Join(dir, "heap2.db")
	if err := run([]string{"-pprof", pb2, "-o", db2}); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(db1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(db2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("pprof round-trip through the CLI drifted the database bytes")
	}

	// Flag validation.
	for _, bad := range [][]string{
		{"-pprof", pb, "-S", "x.hpcstruct", "-o", db1},
		{"-pprof", pb, "-o", db1, "extra.cpprof"},
		{"-pprof", pb, "-export-pprof", pb2, "-o", db1},
		{"-export-pprof", pb2},
	} {
		if err := run(bad); err == nil {
			t.Errorf("run(%v) succeeded, want error", bad)
		}
	}
}

// TestExportPprofRefusesFractionalCost: a database with a cost no integer
// sample value holds is refused by -export-pprof with an error naming the
// scope and the column, and no profile is written.
func TestExportPprofRefusesFractionalCost(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("frac", reg)
	f := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("solve"), File: core.Sym("solve.c")}, true)
	f.Child(core.Key{Kind: core.KindStmt, File: core.Sym("solve.c"), Line: 7}, true).Base.Add(0, 2.5)
	tree.ComputeMetrics()
	dir := t.TempDir()
	db := filepath.Join(dir, "frac.db")
	var buf bytes.Buffer
	if err := expdb.New(tree).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(db, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "frac.pb.gz")
	err := run([]string{"-export-pprof", out, db})
	if err == nil || !strings.Contains(err.Error(), "solve.c: 7") || !strings.Contains(err.Error(), `"CYCLES"`) {
		t.Fatalf("export of a 2.5-cycle statement: %v, want a refusal naming solve.c: 7 and CYCLES", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused export left %s behind: %v", out, err)
	}
}
