// Equivalence tests for the v3 zero-copy storage layout (DESIGN.md §13).
// Mapping column slabs straight out of the file is performance work only:
// every view a session renders must be byte-identical no matter which
// format engine.Open found in the file — XML, v1 or v2 decoded whole, or v3
// mapped with its float64 slabs read in place.
package repro

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/ingest"
	"repro/internal/render"
	"repro/internal/workloads"
)

// renderViews drives one fresh session per view over the snapshot and
// returns the concatenated renders: fully expanded Calling Context,
// fully expanded Callers, once-flattened Flat, plus a hot path and an
// exclusive sort for coverage of the order-sensitive paths.
func renderViews(t *testing.T, snap *engine.Snapshot) string {
	t.Helper()
	scripts := [][]string{
		{"expandall", "hot CYCLES"},
		{"view callers", "expandall", "sort CYCLES"},
		{"view flat", "flatten", "sort CYCLES:excl"},
	}
	var out strings.Builder
	for _, script := range scripts {
		s := engine.NewSession(snap)
		for _, line := range script {
			if resp := s.Do(engine.Request{Line: line}); resp.Err != "" {
				s.Close()
				t.Fatalf("%q: %s", line, resp.Err)
			}
		}
		fmt.Fprintf(&out, "=== %s ===\n", script[0])
		if err := s.Render(&out, render.Options{}); err != nil {
			s.Close()
			t.Fatal(err)
		}
		s.Close()
	}
	return out.String()
}

// TestV3OpenPathEquivalence runs every workload × {1, 7, 64} ranks through
// engine.Open — what the tools call — on a file of each format and demands
// byte-identical renders of all three views, the same quarantine record
// from the formats that store one (v2, v3) and no degradation notes. This
// is the contract that lets hpcprof write v3 by default without a visible
// change.
func TestV3OpenPathEquivalence(t *testing.T) {
	dir := t.TempDir()
	formats := []struct {
		name       string
		write      func(*expdb.Experiment, io.Writer) error
		provenance bool
	}{
		{"v2", (*expdb.Experiment).WriteBinary, true},
		{"v3", (*expdb.Experiment).WriteBinaryV3, true},
		{"v1", (*expdb.Experiment).WriteBinaryV1, false},
		{"xml", (*expdb.Experiment).WriteXML, false},
	}
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) {
				exp := equivExperiment(t, name, ranks)
				exp.Provenance = &ingest.Report{Attempted: ranks + 1, Merged: ranks, Bad: []ingest.BadRank{
					{Path: "lost.cpprof", Rank: ranks, Offset: 5, Class: ingest.ClassTruncated, Message: "unexpected EOF"},
				}}
				var want string
				for _, f := range formats {
					path := filepath.Join(dir, fmt.Sprintf("%s-%d.%s.db", name, ranks, f.name))
					err := expdb.WriteFileAtomic(path, func(file *os.File) error { return f.write(exp, file) })
					if err != nil {
						t.Fatal(err)
					}
					snap, err := engine.Open(path)
					if err != nil {
						t.Fatal(err)
					}
					if mapped := snap.MappedBytes() != nil; mapped != (f.name == "v3") {
						t.Errorf("%s: mapped = %v", f.name, mapped)
					}
					got := renderViews(t, snap)
					if want == "" {
						want = got
					} else if got != want {
						t.Errorf("%s render differs from %s:\n%s", f.name, formats[0].name, firstDiff(want, got))
					}
					prov, err := snap.Provenance()
					if err != nil {
						t.Fatal(err)
					}
					if !f.provenance {
						if prov != nil {
							t.Errorf("%s: provenance %+v from a format that stores none", f.name, prov)
						}
					} else if !reflect.DeepEqual(prov, exp.Provenance) {
						t.Errorf("%s: provenance %+v, want %+v", f.name, prov, exp.Provenance)
					}
					if notes := snap.Notes(); len(notes) != 0 {
						t.Errorf("%s: intact file opened with notes %q", f.name, notes)
					}
					if err := snap.Close(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
