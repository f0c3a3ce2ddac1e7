package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expdb"
	"repro/internal/faultio"
	"repro/internal/ingest"
	"repro/internal/lower"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// writeInputsN produces a structure file and nranks rank profiles for the
// toy workload.
func writeInputsN(t *testing.T, dir string, nranks int) (structPath string, profPaths []string) {
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
	structPath = filepath.Join(dir, "toy.hpcstruct")
	sf, err := os.Create(structPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.WriteXML(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	profs, err := mpi.Run(im, mpi.Config{NRanks: nranks, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profs {
		path := filepath.Join(dir, fmt.Sprintf("toy-%04d.cpprof", p.Rank))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		profPaths = append(profPaths, path)
	}
	return structPath, profPaths
}

// captureStderr runs f with os.Stderr redirected to a pipe.
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	ferr := f()
	w.Close()
	os.Stderr = old
	var data []byte
	buf := make([]byte, 4096)
	for {
		n, rerr := r.Read(buf)
		data = append(data, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return string(data), ferr
}

// damage rewrites path with f applied to its contents.
func damage(t *testing.T, path string, f func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, f(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// The acceptance scenario: a 64-rank workload with 3 damaged rank files
// merges under -keep-going, reports exactly those 3 quarantined with the
// right failure classes, and the resulting database — provenance aside —
// is byte-identical to a merge given only the 61 good files.
func TestKeepGoingQuarantinesAndMatchesGoodOnlyMerge(t *testing.T) {
	dir := t.TempDir()
	structPath, profs := writeInputsN(t, dir, 64)

	damage(t, profs[7], func(b []byte) []byte { return faultio.Truncate(b, len(b)/2) })
	damage(t, profs[20], func(b []byte) []byte { return faultio.Corrupt(b, len(b)/2, 0x40) })
	damage(t, profs[41], func(b []byte) []byte { return []byte("not a profile at all") })
	bad := map[int]bool{7: true, 20: true, 41: true}
	var good []string
	for i, p := range profs {
		if !bad[i] {
			good = append(good, p)
		}
	}

	outAll := filepath.Join(dir, "all.db")
	outGood := filepath.Join(dir, "good.db")
	stderrText, err := captureStderr(t, func() error {
		args := append([]string{"-S", structPath, "-o", outAll, "-summaries", "-jobs", "1", "-keep-going"}, profs...)
		return run(args)
	})
	if err != nil {
		t.Fatalf("-keep-going merge failed: %v", err)
	}
	if n := strings.Count(stderrText, "hpcprof: quarantined "); n != 3 {
		t.Fatalf("quarantine lines = %d, want 3; stderr:\n%s", n, stderrText)
	}
	args := append([]string{"-S", structPath, "-o", outGood, "-summaries", "-jobs", "1"}, good...)
	if err := run(args); err != nil {
		t.Fatalf("good-only merge failed: %v", err)
	}

	readBack := func(path string) *expdb.Experiment {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		e, err := expdb.Read(f)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return e
	}
	expAll := readBack(outAll)
	expGood := readBack(outGood)

	if expAll.NRanks != 61 {
		t.Fatalf("NRanks = %d, want 61", expAll.NRanks)
	}
	p := expAll.Provenance
	if p == nil {
		t.Fatal("provenance missing from quarantined merge")
	}
	if p.Attempted != 64 || p.Merged != 61 || len(p.Bad) != 3 {
		t.Fatalf("provenance = %d/%d with %d bad", p.Merged, p.Attempted, len(p.Bad))
	}
	classes := map[string]ingest.Class{}
	for _, b := range p.Bad {
		classes[filepath.Base(b.Path)] = b.Class
	}
	if classes["toy-0007.cpprof"] != ingest.ClassTruncated {
		t.Errorf("truncated file classified %v", classes["toy-0007.cpprof"])
	}
	if classes["toy-0020.cpprof"] != ingest.ClassCorrupt {
		t.Errorf("bit-flipped file classified %v", classes["toy-0020.cpprof"])
	}
	if classes["toy-0041.cpprof"] != ingest.ClassCorrupt {
		t.Errorf("garbage file classified %v", classes["toy-0041.cpprof"])
	}
	if expGood.Provenance != nil {
		t.Fatal("clean merge grew provenance")
	}

	// Byte-for-byte equality once the provenance difference is removed:
	// the quarantined files never touched an accumulator, so summary
	// statistics were computed over exactly the 61 good ranks.
	expAll.Provenance = nil
	var a, b bytes.Buffer
	if err := expAll.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if err := expGood.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("keep-going database differs from good-only database (%d vs %d bytes)", a.Len(), b.Len())
	}
}

func TestMaxBadRanksAborts(t *testing.T) {
	dir := t.TempDir()
	structPath, profs := writeInputsN(t, dir, 8)
	for _, i := range []int{1, 3, 5} {
		damage(t, profs[i], func(b []byte) []byte { return faultio.Truncate(b, len(b)/3) })
	}
	out := filepath.Join(dir, "out.db")
	// -max-bad-ranks implies -keep-going; the third failure exceeds 2.
	_, err := captureStderr(t, func() error {
		args := append([]string{"-S", structPath, "-o", out, "-jobs", "1", "-max-bad-ranks", "2"}, profs...)
		return run(args)
	})
	if err == nil {
		t.Fatal("exceeding -max-bad-ranks did not abort")
	}
	if !strings.Contains(err.Error(), "measurement files failed") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Within the budget the merge succeeds.
	stderrText, err := captureStderr(t, func() error {
		args := append([]string{"-S", structPath, "-o", out, "-jobs", "1", "-max-bad-ranks", "3"}, profs...)
		return run(args)
	})
	if err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if n := strings.Count(stderrText, "hpcprof: quarantined "); n != 3 {
		t.Fatalf("quarantine lines = %d, want 3", n)
	}
}

// Without -keep-going each failure mode aborts the merge with a clear
// error; with it, a lone bad file still fails (nothing merged).
func TestIngestErrorPaths(t *testing.T) {
	dir := t.TempDir()
	structPath, profs := writeInputsN(t, dir, 2)
	goodData, err := os.ReadFile(profs[0])
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		path    string
		errWant string
	}{
		{"nonexistent", filepath.Join(dir, "ghost.cpprof"), "ghost.cpprof"},
		{"empty", mk("empty.cpprof", nil), "reading"},
		{"bad-magic", mk("badmagic.cpprof", []byte("ZZZZ plus whatever follows")), "bad magic"},
		{"truncated-mid-tree", mk("trunc.cpprof", goodData[:len(goodData)*4/5]), "reading"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(dir, tc.name+".db")
			_, err := captureStderr(t, func() error {
				return run([]string{"-S", structPath, "-o", out, tc.path})
			})
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %q does not mention %q", err, tc.errWant)
			}
			// With -keep-going and no good files at all, the merge still
			// fails — an empty database is never silently produced.
			_, err = captureStderr(t, func() error {
				return run([]string{"-S", structPath, "-o", out, "-keep-going", tc.path})
			})
			if err == nil || !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("all-bad keep-going merge: %v", err)
			}
		})
	}
}
