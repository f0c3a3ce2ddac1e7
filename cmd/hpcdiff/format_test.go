package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expdb"
)

// TestUnionFormat: -o writes CPDB3 unless -format says binary, and a bad
// -format is reported while parsing flags — before any input is opened and
// whether or not -o is given.
func TestUnionFormat(t *testing.T) {
	dir := t.TempDir()
	a, b := writePair(t, dir)
	union := filepath.Join(dir, "union.db")
	for _, tc := range []struct {
		args  []string
		magic string
	}{
		{[]string{"-o", union, a, b}, expdb.MagicV3},
		{[]string{"-o", union, "-format", "v3", a, b}, expdb.MagicV3},
		{[]string{"-o", union, "-format", "binary", a, b}, "CPDB2"},
	} {
		if err := run(tc.args, io.Discard); err != nil {
			t.Fatalf("run(%v): %v", tc.args, err)
		}
		data, err := os.ReadFile(union)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte(tc.magic)) {
			t.Errorf("run(%v) wrote %q, want %q", tc.args, data[:len(tc.magic)], tc.magic)
		}
	}

	ghost := filepath.Join(dir, "ghost")
	for _, args := range [][]string{
		{"-format", "yaml", ghost, ghost},
		{"-format", "xml", "-o", union, ghost, ghost},
	} {
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown -format") || strings.Contains(err.Error(), ghost) {
			t.Errorf("run(%v) = %v, want the format named and not the path", args, err)
		}
	}
}
