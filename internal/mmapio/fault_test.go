package mmapio_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
	"repro/internal/mmapio"
)

// TestGuardNamesTheShrunkFile maps a v3 database, truncates the file under
// the mapping and reads a page past the new end inside Guard: the fault is
// one error naming the file, and the process lives on.
func TestGuardNamesTheShrunkFile(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("cost", "samples", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("p", reg)
	for i := 1; i <= 3000; i++ {
		f := tree.Root.AppendChild(core.Key{Kind: core.KindFrame, Name: core.Sym("f"), File: core.Sym("f.c"), ID: uint64(i)})
		f.AppendChild(core.Key{Kind: core.KindStmt, File: core.Sym("f.c"), Line: i}).Base.Add(0, float64(i))
	}
	tree.ComputeMetrics()
	var buf bytes.Buffer
	if err := expdb.New(tree).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "experiment.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := mmapio.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Mapped() {
		t.Skip("the file is read into memory, not mapped: truncating it faults nothing")
	}
	if r.Len() < 3*os.Getpagesize() {
		t.Fatalf("fixture: a %d-byte database has no page past the first two", r.Len())
	}
	if err := os.Truncate(path, int64(os.Getpagesize())); err != nil {
		t.Fatal(err)
	}
	var read byte
	err = mmapio.Guard(func() error {
		read = r.Bytes()[r.Len()-1]
		return nil
	}, path)
	var fault interface{ Addr() uintptr }
	if !errors.As(err, &fault) || !strings.HasPrefix(err.Error(), "reading "+path+": fault on a page") {
		t.Fatalf("reading a lost page gave %v (read %d), want a fault naming %s", err, read, path)
	}

	// Any other panic is not Guard's to turn into an error.
	defer func() {
		if p := recover(); p != "not a fault" {
			t.Fatalf("Guard let through %v, want the panic", p)
		}
	}()
	mmapio.Guard(func() error { panic("not a fault") })
	t.Fatal("Guard swallowed a panic")
}
