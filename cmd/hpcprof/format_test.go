package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/expdb"
)

// TestDefaultFormatIsV3: without -format a merge and a -pprof import both
// write CPDB3, and a bad -format is reported before any input is opened.
func TestDefaultFormatIsV3(t *testing.T) {
	dir := t.TempDir()
	structPath, profs := writeInputs(t, dir)
	pb := filepath.Join(dir, "heap.pb.gz")
	var buf bytes.Buffer
	if err := pprof.WriteHeapProfile(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.db")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"merge", append([]string{"-S", structPath, "-o", out}, profs...)},
		{"pprof", []string{"-pprof", pb, "-o", out}},
	} {
		if err := run(tc.args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(expdb.MagicV3)) {
			t.Errorf("%s: default output starts with %q, want %q", tc.name, data[:len(expdb.MagicV3)], expdb.MagicV3)
		}
	}

	ghost := filepath.Join(dir, "ghost")
	for _, args := range [][]string{
		{"-S", ghost, "-format", "yaml", ghost},
		{"-pprof", ghost, "-format", "yaml"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), `unknown format "yaml"`) || strings.Contains(err.Error(), ghost) {
			t.Errorf("run(%v) = %v, want the format named and not the path", args, err)
		}
	}
}
