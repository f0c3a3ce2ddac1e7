// End-to-end acceptance for the pprof bridge: a profile captured by Go's
// own runtime profiler imports into a normal experiment database, renders
// in all three views, diffs against a second run, and yields byte-stable
// hpcreport JSON.
package repro

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/pprofio"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/source"
)

// e2eSink keeps test allocations live so the heap profiler (which samples
// roughly one allocation per 512 KiB) has something to record.
var e2eSink [][]byte

// realHeapExperiment captures this process's live heap with Go's runtime
// profiler and imports it through the pprof bridge.
func realHeapExperiment(t *testing.T, blocks int) (*expdb.Experiment, *pprofio.Profile) {
	t.Helper()
	for i := 0; i < blocks; i++ {
		e2eSink = append(e2eSink, make([]byte, 1<<20))
	}
	runtime.GC()
	var pb bytes.Buffer
	if err := pprof.WriteHeapProfile(&pb); err != nil {
		t.Fatal(err)
	}
	im, err := pprofio.Import(bytes.NewReader(pb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := source.BuildTree(im)
	if err != nil {
		t.Fatal(err)
	}
	return &expdb.Experiment{Program: im.Program(), NRanks: im.NRanks(), Tree: tree}, im
}

func TestPprofEndToEnd(t *testing.T) {
	exp, im := realHeapExperiment(t, 48)
	if len(exp.Tree.Root.Children) == 0 {
		t.Fatal("imported heap profile has no scopes")
	}
	var names []string
	for _, m := range im.Metrics() {
		names = append(names, m.Name)
	}
	if len(names) != 4 {
		t.Fatalf("heap profile metrics = %v, want the 4 standard sample types", names)
	}

	// The imported database must serve all three views like any other.
	var v2 bytes.Buffer
	if err := exp.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	eager, err := expdb.Read(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snap := engine.NewSnapshot(eager)
	scripts := [][]string{
		{"expandall", "hot " + names[1]},
		{"view callers", "expandall", "sort " + names[1]},
		{"view flat", "flatten", "sort " + names[1] + ":excl"},
	}
	for _, script := range scripts {
		s := engine.NewSession(snap)
		for _, line := range script {
			if resp := s.Do(engine.Request{Line: line}); resp.Err != "" {
				s.Close()
				t.Fatalf("%q over imported profile: %s", line, resp.Err)
			}
		}
		var out strings.Builder
		if err := s.Render(&out, render.Options{}); err != nil {
			s.Close()
			t.Fatal(err)
		}
		s.Close()
		if out.Len() == 0 {
			t.Fatalf("%q rendered nothing", script)
		}
	}

	// A second capture (more live heap) diffs against the first.
	exp2, _ := realHeapExperiment(t, 16)
	res, err := diff.Diff(diff.Config{},
		diff.Input{Label: "run1", Exp: exp},
		diff.Input{Label: "run2", Exp: exp2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Report(diff.ReportOptions{Metric: names[1]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metric != names[1] {
		t.Fatalf("diff report metric %q, want %q", rep.Metric, names[1])
	}

	// hpcreport over the import is byte-stable.
	build := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := report.Build(exp, report.Options{Baseline: exp2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(build(1), build(8)) {
		t.Fatal("report over imported profile not byte-stable across GOMAXPROCS")
	}
}

// TestPprofRealCPUProfile runs the importer over a live CPU profile — the
// same bytes `go test -cpuprofile` writes. CPU sampling is statistical, so
// the test skips (rather than flakes) on the rare empty capture.
func TestPprofRealCPUProfile(t *testing.T) {
	var pb bytes.Buffer
	if err := pprof.StartCPUProfile(&pb); err != nil {
		t.Fatal(err)
	}
	spin := 0
	for i := 0; i < 1<<27; i++ {
		spin += i * i
	}
	pprof.StopCPUProfile()
	if spin == 0 {
		t.Fatal("unreachable")
	}
	im, err := pprofio.Import(bytes.NewReader(pb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := source.BuildTree(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Root.Children) == 0 {
		t.Skip("CPU profiler captured no samples in this run")
	}
	// Inclusive cost at every entry frame sums to the column totals.
	for _, m := range im.Metrics() {
		d := tree.Reg.ByName(m.Name)
		if d == nil {
			t.Fatalf("imported tree lost metric %q", m.Name)
		}
		var total float64
		for _, entry := range tree.Root.Children {
			total += entry.Incl.Get(d.ID)
		}
		if total != tree.Root.Incl.Get(d.ID) {
			t.Fatalf("%s: entry frames sum %g, root inclusive %g", m.Name, total, tree.Root.Incl.Get(d.ID))
		}
	}
	t.Logf("cpu profile: %d entry frames, %d metrics", len(tree.Root.Children), len(im.Metrics()))
}
