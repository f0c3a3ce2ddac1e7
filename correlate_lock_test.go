// Equivalence lock for the ingestion-core refactor (DESIGN.md §16): the
// hpcrun+structfile correlation path was reworked to run through the
// format-neutral internal/source boundary, and that refactor must be
// byte-invisible. This test pins the SHA-256 of the v1, v2 and v3 database
// bytes produced by the full merge pipeline for every workload × {1, 7, 64}
// ranks against checksums recorded from the pre-refactor code
// (testdata/correlate_lock.txt; the v1 digests from the varint-stream
// writer before the binary formats shared one tree walk). Any drift in node
// creation order, metric column order or attributed values changes the
// serialized bytes and fails here.
//
// Regenerate the lock file (only when an intentional format or pipeline
// change invalidates it) with:
//
//	CORRELATE_LOCK_UPDATE=1 go test -run TestCorrelateSourceLock .
package repro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/expdb"
	"repro/internal/merge"
	"repro/internal/workloads"
)

const correlateLockFile = "testdata/correlate_lock.txt"

// correlateLockDigests builds every workload × rank-count database through
// the standard merge pipeline (summaries and a derived column, like
// hpcprof -summaries) and returns "name/ranks/format sha256" lines.
func correlateLockDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			doc, profs := mustMPIProfiles(t, name, ranks)
			res, err := merge.Profiles(doc, profs)
			if err != nil {
				t.Fatal(err)
			}
			exp := expdb.FromMerge(res)
			var v1, v2, v3 bytes.Buffer
			if err := exp.WriteBinaryV1(&v1); err != nil {
				t.Fatal(err)
			}
			if err := exp.WriteBinary(&v2); err != nil {
				t.Fatal(err)
			}
			if err := exp.WriteBinaryV3(&v3); err != nil {
				t.Fatal(err)
			}
			lines = append(lines,
				fmt.Sprintf("%s/%d/v1 %x", name, ranks, sha256.Sum256(v1.Bytes())),
				fmt.Sprintf("%s/%d/v2 %x", name, ranks, sha256.Sum256(v2.Bytes())),
				fmt.Sprintf("%s/%d/v3 %x", name, ranks, sha256.Sum256(v3.Bytes())))
		}
	}
	sort.Strings(lines)
	return lines
}

// TestCorrelateSourceLock compares the current pipeline's database bytes
// against the pre-refactor checksums.
func TestCorrelateSourceLock(t *testing.T) {
	got := correlateLockDigests(t)
	if os.Getenv("CORRELATE_LOCK_UPDATE") != "" {
		if err := os.WriteFile(correlateLockFile,
			[]byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", correlateLockFile, len(got))
		return
	}
	data, err := os.ReadFile(correlateLockFile)
	if err != nil {
		t.Fatalf("missing lock file (generate with CORRELATE_LOCK_UPDATE=1): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("digest count drifted: got %d, lock has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("database bytes drifted from pre-refactor output:\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}
