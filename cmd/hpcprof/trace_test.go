package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// writeTracedInputs is writeInputsN with trace capture enabled.
func writeTracedInputs(t *testing.T, dir string, nranks int) (structPath string, profPaths []string) {
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

	profs, err := mpi.Run(im, mpi.Config{
		NRanks: nranks,
		Events: sampler.DefaultEvents(spec.Period),
		Trace:  true,
	})
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

// TestTracePipeline drives the full measurement-to-view path through the
// CLI: traced profiles, hpcprof -traces, OpenMapped, a rendered view.
func TestTracePipeline(t *testing.T) {
	dir := t.TempDir()
	structPath, profPaths := writeTracedInputs(t, dir, 3)
	out := filepath.Join(dir, "exp.db")
	args := append([]string{"-S", structPath, "-format", "v3", "-traces", "-o", out}, profPaths...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}

	db, err := expdb.OpenMapped(out)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tv, err := db.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got := tv.TraceRanks(); len(got) != 3 {
		t.Fatalf("trace ranks = %v, want 3", got)
	}
	g, err := trace.View(tv, 0, 0, nil, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, c := range g.Cells {
		if !c.Empty() {
			if db.NodeAt(int(c.CPID)) == nil {
				t.Fatalf("cell CPID %d has no node", c.CPID)
			}
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("rendered view is empty")
	}
}

// TestTraceJobsByteIdentical locks the full database bytes across -jobs.
func TestTraceJobsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	structPath, profPaths := writeTracedInputs(t, dir, 4)
	var outs [][]byte
	for _, jobs := range []string{"1", "8"} {
		out := filepath.Join(dir, "exp-j"+jobs+".db")
		args := append([]string{"-S", structPath, "-format", "v3", "-traces",
			"-jobs", jobs, "-o", out}, profPaths...)
		if err := run(args); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, data)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("database bytes differ between -jobs 1 and -jobs 8")
	}
}

// TestTracesRequiresV3 rejects -traces with non-v3 formats; the default
// format is v3, so -traces alone works.
func TestTracesRequiresV3(t *testing.T) {
	dir := t.TempDir()
	structPath, profPaths := writeTracedInputs(t, dir, 1)
	out := filepath.Join(dir, "x.db")
	for _, format := range []string{"binary", "xml"} {
		args := append([]string{"-S", structPath, "-traces", "-format", format, "-o", out}, profPaths...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "-traces requires -format v3") {
			t.Fatalf("-traces -format %s: %v", format, err)
		}
	}
	if err := run(append([]string{"-S", structPath, "-traces", "-o", out}, profPaths...)); err != nil {
		t.Fatalf("-traces with the default format: %v", err)
	}
	mdb, err := expdb.OpenMapped(out)
	if err != nil {
		t.Fatal(err)
	}
	defer mdb.Close()
	if tv, err := mdb.Trace(); err != nil || tv == nil || len(tv.TraceRanks()) != 1 {
		t.Fatalf("default-format -traces database: trace view %v, err %v", tv, err)
	}
}

// TestUntracedInputsYieldNoTraceSections: -traces over v1-era profiles
// (no capture) writes a database without trace sections, not an error.
func TestUntracedInputsYieldNoTraceSections(t *testing.T) {
	dir := t.TempDir()
	structPath, profPaths := writeInputsN(t, dir, 2)
	out := filepath.Join(dir, "exp.db")
	args := append([]string{"-S", structPath, "-format", "v3", "-traces", "-o", out}, profPaths...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	db, err := expdb.OpenMapped(out)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tv, err := db.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.TraceRanks()) != 0 {
		t.Fatalf("untraced inputs produced trace ranks %v", tv.TraceRanks())
	}
}
