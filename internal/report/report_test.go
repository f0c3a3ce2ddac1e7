package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/expdb"
	"repro/internal/imbalance"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// fixture builds the merged toy experiment at the given rank count, with
// mean/max summary columns when summaries is set.
func fixture(t *testing.T, ranks int, summaries bool) *expdb.Experiment {
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
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	if summaries {
		cyc := res.Tree.Reg.ByName("CYCLES")
		if cyc == nil {
			t.Fatal("no CYCLES column")
		}
		if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
			t.Fatal(err)
		}
	}
	return expdb.FromMerge(res)
}

func TestReportBuild(t *testing.T) {
	exp := fixture(t, 3, true)
	r, err := Build(exp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ranks != 3 || r.Scopes != exp.Tree.NumNodes() {
		t.Fatalf("ranks=%d scopes=%d, want 3/%d", r.Ranks, r.Scopes, exp.Tree.NumNodes())
	}
	if len(r.HotPaths) == 0 {
		t.Fatal("no hot paths")
	}
	for _, hp := range r.HotPaths {
		if hp.Metric != "CYCLES" {
			t.Fatalf("hot path metric %q, want CYCLES (first raw column)", hp.Metric)
		}
		if len(hp.Steps) == 0 || hp.Steps[0].Fraction != 1 {
			t.Fatalf("hot path %q: steps %+v", hp.Root, hp.Steps)
		}
		for _, s := range hp.Steps {
			if s.Incl > hp.Total {
				t.Fatalf("step %q inclusive %g exceeds root total %g", s.Label, s.Incl, hp.Total)
			}
		}
	}
	if len(r.Waste) != 1 {
		t.Fatalf("waste analyses = %d, want 1 (one raw metric with summaries)", len(r.Waste))
	}
	wm := r.Waste[0]
	if wm.Efficiency <= 0 || wm.Efficiency > 1 {
		t.Fatalf("efficiency %g outside (0, 1]", wm.Efficiency)
	}
	if wm.TotalMax < wm.TotalMean || wm.TotalWaste < 0 {
		t.Fatalf("mean %g max %g waste %g inconsistent", wm.TotalMean, wm.TotalMax, wm.TotalWaste)
	}
	if len(r.Imbalance) != 1 {
		t.Fatalf("imbalance analyses = %d, want 1", len(r.Imbalance))
	}
	im := r.Imbalance[0]
	if im.Frames == 0 || im.MaxFactor < im.MeanFactor {
		t.Fatalf("imbalance %+v inconsistent", im)
	}
	for i := 1; i < len(im.Worst); i++ {
		if im.Worst[i].Factor > im.Worst[i-1].Factor {
			t.Fatal("worst offenders not sorted by factor")
		}
	}
	if r.Regressions != nil {
		t.Fatal("regressions present without a baseline")
	}
	md := r.Markdown()
	for _, want := range []string{"## Hot paths", "## Waste and parallel efficiency", "## Load imbalance"} {
		if !bytes.Contains(md, []byte(want)) {
			t.Fatalf("markdown missing %q", want)
		}
	}
}

// TestReportNoSummaries: without cross-rank summary columns the report
// degrades to hot paths plus an explanatory note.
func TestReportNoSummaries(t *testing.T) {
	r, err := Build(fixture(t, 3, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Waste) != 0 || len(r.Imbalance) != 0 {
		t.Fatal("waste/imbalance produced without summary columns")
	}
	found := false
	for _, n := range r.Notes {
		found = found || strings.Contains(n, "hpcprof -summaries")
	}
	if !found {
		t.Fatalf("notes %q missing the summaries hint", r.Notes)
	}
}

// TestReportLeavesExperimentNotes: the report's notes start from a copy of
// the experiment's. Two concurrent builds over an experiment whose notes
// slice has spare capacity each add their own note; neither may write the
// experiment's array (under -race the shared write is a data race).
func TestReportLeavesExperimentNotes(t *testing.T) {
	exp := fixture(t, 3, false)
	exp.Notes = make([]string, 3, 4)
	for i := range exp.Notes {
		exp.Notes[i] = fmt.Sprintf("note %d", i)
	}
	var wg sync.WaitGroup
	reps := make([]*Report, 2)
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Build(exp, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = r
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if spare := exp.Notes[:4][3]; spare != "" {
		t.Fatalf("a report wrote %q into the experiment's notes array", spare)
	}
	for _, r := range reps {
		if len(r.Notes) != 4 || r.Notes[2] != "note 2" || !strings.Contains(r.Notes[3], "hpcprof -summaries") {
			t.Fatalf("report notes %q, want the experiment's three and the summaries hint", r.Notes)
		}
	}
}

// TestReportRootWithoutSummaries: a database merged before the root kept
// summary cells has zeros there. Its program totals are unknown, so the
// two analyses are skipped with a note that names the cause, and no total
// is estimated from the entry frames.
func TestReportRootWithoutSummaries(t *testing.T) {
	exp := fixture(t, 3, true)
	for _, d := range exp.Tree.Reg.Columns() {
		if d.Kind == metric.Summary {
			exp.Tree.Root.Incl.Set(d.ID, 0)
		}
	}
	var buf bytes.Buffer
	if err := exp.WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	old, err := expdb.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Build(old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Waste) != 0 || len(r.Imbalance) != 0 {
		t.Fatalf("waste %+v / imbalance %+v produced without program totals", r.Waste, r.Imbalance)
	}
	want := "CYCLES: summary columns hold no program totals (merged before the root kept them): waste/imbalance analyses skipped (re-merge with hpcprof -summaries)"
	if len(r.Notes) != 1 || r.Notes[0] != want {
		t.Fatalf("notes %q, want only %q", r.Notes, want)
	}
}

// TestReportColumnRecordedNothing: a raw column whose every cell is 0 has
// no program mean/max to divide, so its waste and imbalance analyses are
// skipped with a note naming it, rather than reported as efficiency 0.
func TestReportColumnRecordedNothing(t *testing.T) {
	exp := fixture(t, 3, true)
	st := exp.Tree.MetricStore()
	for _, d := range exp.Tree.Reg.Columns() {
		if d.Name == "CYCLES" || d.Kind == metric.Summary {
			for _, p := range []metric.Plane{metric.PlaneBase, metric.PlaneIncl, metric.PlaneExcl} {
				clear(st.Col(p, d.ID))
			}
		}
	}
	r, err := Build(exp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Waste) != 0 || len(r.Imbalance) != 0 {
		t.Fatalf("waste %+v / imbalance %+v produced for a column that recorded nothing", r.Waste, r.Imbalance)
	}
	want := "CYCLES: recorded nothing, so mean/max is undefined: waste/imbalance analyses skipped"
	if len(r.Notes) != 1 || r.Notes[0] != want {
		t.Fatalf("notes %q, want only %q", r.Notes, want)
	}
}

// TestReportJobsDeterminism: report bytes — JSON and markdown, including
// the baseline diff — must not depend on the diff kernels' worker count,
// which follows GOMAXPROCS.
func TestReportJobsDeterminism(t *testing.T) {
	exp := fixture(t, 3, true)
	base := fixture(t, 7, true)
	render := func(procs int) ([]byte, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := Build(exp, Options{Baseline: base})
		if err != nil {
			t.Fatal(err)
		}
		j, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j, r.Markdown()
	}
	j1, m1 := render(1)
	j8, m8 := render(8)
	if !bytes.Equal(j1, j8) {
		t.Fatal("report JSON differs between GOMAXPROCS 1 and 8")
	}
	if !bytes.Equal(m1, m8) {
		t.Fatal("report markdown differs between GOMAXPROCS 1 and 8")
	}
	var r struct {
		Regressions *struct{} `json:"regressions"`
	}
	if err := json.Unmarshal(j1, &r); err != nil {
		t.Fatal(err)
	}
	if r.Regressions == nil {
		t.Fatal("baseline diff missing from report")
	}
}

func TestReportErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil experiment did not error")
	}
	if _, err := Build(fixture(t, 1, false), Options{Metric: "NOPE"}); err == nil {
		t.Fatal("unknown metric did not error")
	}
	if _, err := Build(fixture(t, 1, false), Options{Bins: imbalance.MaxBins + 1}); err == nil {
		t.Fatal("bins above imbalance.MaxBins did not error")
	}
}
