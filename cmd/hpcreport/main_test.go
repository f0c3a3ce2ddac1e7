package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// buildDB writes the merged toy experiment (with mean/max summaries) at
// the given rank count as a v3 database and returns its path.
func buildDB(t *testing.T, dir string, ranks int) string {
	t.Helper()
	spec, err := workloads.ByName("pflotran")
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
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	cyc := res.Tree.Reg.ByName("CYCLES")
	if cyc == nil {
		t.Fatal("no CYCLES column")
	}
	if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := expdb.FromMerge(res).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "pflotran.db")
	if ranks != 3 {
		path = filepath.Join(dir, "pflotran-base.db")
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportGolden locks the full hpcreport output — JSON and markdown,
// including the regression section against a baseline — over a fixed
// workload. The toy simulation, the merge, and the report builder are all
// deterministic, so these bytes must never drift by accident. Regenerate
// with REPORT_GOLDEN_UPDATE=1 after an intentional change.
func TestReportGolden(t *testing.T) {
	dir := t.TempDir()
	db := buildDB(t, dir, 3)
	base := buildDB(t, dir, 7)
	outJSON := filepath.Join(dir, "report.json")
	outMD := filepath.Join(dir, "report.md")
	err := run([]string{"-baseline", base, "-top", "5",
		"-o", outJSON, "-md", outMD, db})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ got, golden string }{
		{outJSON, filepath.Join("testdata", "report_golden.json")},
		{outMD, filepath.Join("testdata", "report_golden.md")},
	} {
		got, err := os.ReadFile(f.got)
		if err != nil {
			t.Fatal(err)
		}
		if os.Getenv("REPORT_GOLDEN_UPDATE") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(f.golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(f.golden)
		if err != nil {
			t.Fatalf("%v (run with REPORT_GOLDEN_UPDATE=1 to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from %s; regenerate with REPORT_GOLDEN_UPDATE=1 if intended\ngot:\n%s",
				f.got, f.golden, got)
		}
	}
}

// TestReportJobsDeterminism: the CLI contract that GOMAXPROCS never
// changes report bytes.
func TestReportJobsDeterminism(t *testing.T) {
	dir := t.TempDir()
	db := buildDB(t, dir, 3)
	base := buildDB(t, dir, 7)
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := filepath.Join(dir, fmt.Sprintf("report-%d.json", procs))
		if err := run([]string{"-baseline", base, "-o", out, db}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(render(1), render(8)) {
		t.Fatal("report bytes differ between GOMAXPROCS 1 and 8")
	}
}

func TestReportFlagErrors(t *testing.T) {
	dir := t.TempDir()
	db := buildDB(t, dir, 3)
	for _, args := range [][]string{
		{},                        // no database
		{db, db},                  // two databases
		{"-o", "", "-md", "", db}, // nothing to write
		{"-o", filepath.Join(dir, "x.json"), filepath.Join(dir, "missing.db")},
		{"-metric", "NOPE", "-o", filepath.Join(dir, "x.json"), db},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) did not error", args)
		}
	}
}
