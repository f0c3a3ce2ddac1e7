package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// writeInputs produces a structure file and two rank profiles for the toy
// workload.
func writeInputs(t *testing.T, dir string) (structPath string, profPaths []string) {
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

	profs, err := mpi.Run(im, mpi.Config{NRanks: 2, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range profs {
		path := filepath.Join(dir, "toy.cpprof."+string(rune('0'+p.Rank)))
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

func TestRunBinaryAndXML(t *testing.T) {
	dir := t.TempDir()
	structPath, profs := writeInputs(t, dir)
	for _, format := range []string{"binary", "xml"} {
		out := filepath.Join(dir, "db."+format)
		args := append([]string{"-S", structPath, "-o", out, "-format", format, "-summaries"}, profs...)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		var e *expdb.Experiment
		if format == "binary" {
			e, err = expdb.Read(f)
		} else {
			e, err = expdb.ReadXML(f)
		}
		f.Close()
		if err != nil {
			t.Fatalf("%s read back: %v", format, err)
		}
		if e.NRanks != 2 {
			t.Fatalf("ranks = %d", e.NRanks)
		}
		if e.Tree.Reg.ByName("CYCLES (mean)") == nil {
			t.Fatal("summary columns missing")
		}
	}
}

func TestRunRejectsMismatchedBuild(t *testing.T) {
	dir := t.TempDir()
	_, profs := writeInputs(t, dir)
	// Structure document from a different workload (different build):
	// correlation must refuse rather than attribute nonsense.
	spec, err := workloads.ByName("moab")
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
	wrongStruct := filepath.Join(dir, "moab.hpcstruct")
	f, err := os.Create(wrongStruct)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	args := append([]string{"-S", wrongStruct, "-o", filepath.Join(dir, "bad.db")}, profs...)
	err = run(args)
	if err == nil {
		t.Fatal("mismatched build accepted")
	}
	if !strings.Contains(err.Error(), "different build") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	structPath, profs := writeInputs(t, dir)
	cases := [][]string{
		{},                 // missing -S
		{"-S", structPath}, // no profiles
		append([]string{"-S", structPath, "-format", "yaml"}, profs...), // bad format
		append([]string{"-S", filepath.Join(dir, "ghost")}, profs...),   // missing struct
		{"-S", structPath, structPath},                                  // struct file as profile
		append([]string{"-S", structPath, "-jobs", "2"}, profs...),      // GOMAXPROCS sets the workers
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
