package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// -residency on a mapped v3 database reports the whole-file probe plus a
// per-section-kind breakdown; a legacy file's skipped trace sections are
// listed alongside the columns.
func TestResidencyBreakdown(t *testing.T) {
	path := filepath.Join("..", "..", "internal", "expdb", "testdata", "legacy_traced_v3.cpdb")
	errText, err := captureStderr(t, func() error {
		_, ierr := captureStdout(t, func() error {
			return run([]string{"-db", path, "-interactive", "-residency"})
		})
		return ierr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errText, "residency at open: resident") {
		t.Fatalf("no whole-file residency line:\n%s", errText)
	}
	for _, kind := range []string{"column:", "trace:", "pyramid:", "tracemeta:", "tree:"} {
		if !strings.Contains(errText, kind) {
			t.Fatalf("per-kind breakdown missing %q:\n%s", kind, errText)
		}
	}
	if !strings.Contains(errText, "residency at exit") {
		t.Fatalf("no exit-time residency report:\n%s", errText)
	}
}
