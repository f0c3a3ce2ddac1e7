package callpath

import (
	"bytes"
	"strings"
	"testing"
)

func TestWorkloadsListed(t *testing.T) {
	names := Workloads()
	if len(names) != 4 {
		t.Fatalf("workloads = %v", names)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(RunConfig{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunToyEndToEnd(t *testing.T) {
	res, err := Run(RunConfig{Workload: "toy"})
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Experiment.Tree
	if tree.NumNodes() == 0 {
		t.Fatal("empty tree")
	}
	cyc, err := MetricColumn(tree, "CYCLES")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Total(cyc) == 0 {
		t.Fatal("no cycles recorded")
	}

	// All three views render.
	var b bytes.Buffer
	if err := RenderTree(&b, tree, RenderOptions{MaxDepth: 6}); err != nil {
		t.Fatal(err)
	}
	if err := RenderCallers(&b, BuildCallersView(tree), tree, RenderOptions{MaxDepth: 3}); err != nil {
		t.Fatal(err)
	}
	if err := RenderFlat(&b, BuildFlatView(tree), tree, RenderOptions{MaxDepth: 4}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "file2.c") {
		t.Fatalf("render incomplete:\n%s", b.String())
	}

	// Hot path works from the public surface.
	hp := HotPath(tree.Root, cyc, DefaultHotPathThreshold)
	if len(hp) < 2 {
		t.Fatalf("hot path = %d scopes", len(hp))
	}
}

func TestRunWithDerivedAndDB(t *testing.T) {
	res, err := Run(RunConfig{Workload: "s3d", Period: 5000})
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Experiment.Tree
	wasteID, err := AddDerived(tree, "fpwaste", "$0*4 - $1")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root.Incl.Get(wasteID) <= 0 {
		t.Fatal("derived waste not computed")
	}

	// Round trip through both database formats.
	var xmlBuf, binBuf bytes.Buffer
	if err := WriteXML(&xmlBuf, res.Experiment); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&binBuf, res.Experiment); err != nil {
		t.Fatal(err)
	}
	fromXML, err := ReadXML(&xmlBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&binBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Experiment{fromXML, fromBin} {
		if e.Tree.Total(0) != tree.Total(0) {
			t.Fatalf("total changed after round trip: %g vs %g", e.Tree.Total(0), tree.Total(0))
		}
		if e.Tree.Root.Incl.Get(wasteID) != tree.Root.Incl.Get(wasteID) {
			t.Fatal("derived column lost in round trip")
		}
	}
}

func TestRunParallelWithSummariesAndImbalance(t *testing.T) {
	res, err := Run(RunConfig{Workload: "pflotran", Ranks: 8, Summaries: true})
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Experiment.Tree
	if tree.Reg.ByName("CYCLES (mean)") == nil || tree.Reg.ByName("CYCLES (max)") == nil {
		t.Fatal("summary columns missing")
	}
	rep, err := res.AnalyzeImbalance(
		[]string{"main", "stepper_run", "loop at timestepper.F90: 384", "flow_solve"},
		"CYCLES", 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ImbalanceFactor() <= 0 {
		t.Fatal("no imbalance detected in the skewed workload")
	}
	if res.Experiment.NRanks != 8 {
		t.Fatalf("NRanks = %d", res.Experiment.NRanks)
	}
}

func TestRunParamOverride(t *testing.T) {
	small, err := Run(RunConfig{Workload: "pflotran", Ranks: 2, Params: map[string]int64{"cells": 100}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(RunConfig{Workload: "pflotran", Ranks: 2, Params: map[string]int64{"cells": 400}})
	if err != nil {
		t.Fatal(err)
	}
	if big.Experiment.Tree.Total(0) <= small.Experiment.Tree.Total(0) {
		t.Fatal("cells parameter had no effect")
	}
}

func TestFig1TreeExported(t *testing.T) {
	tree := Fig1Tree()
	if tree.Total(0) != 10 {
		t.Fatalf("Fig1 total = %g", tree.Total(0))
	}
	cv := BuildCallersView(tree)
	cv.ExpandAll()
	fv := BuildFlatView(tree)
	if len(cv.Roots) != 4 || len(fv.Roots) != 1 {
		t.Fatal("views wrong on Fig1 tree")
	}
}

func TestMetricColumnUnknown(t *testing.T) {
	tree := Fig1Tree()
	if _, err := MetricColumn(tree, "NOPE"); err == nil {
		t.Fatal("unknown metric resolved")
	}
}

func TestRunWithThreads(t *testing.T) {
	res, err := Run(RunConfig{Workload: "toy", Ranks: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 4 {
		t.Fatalf("profiles = %d, want 4 (2 ranks x 2 threads)", len(res.Profiles))
	}
	seen := map[[2]int]bool{}
	for _, p := range res.Profiles {
		seen[[2]int{p.Rank, p.Thread}] = true
	}
	if len(seen) != 4 {
		t.Fatalf("duplicate (rank, thread) identities: %v", seen)
	}
	if res.Experiment.NRanks != 4 {
		t.Fatalf("NRanks = %d (profiles merged)", res.Experiment.NRanks)
	}
}

func TestAnalyzeImbalanceUnknownScope(t *testing.T) {
	res, err := Run(RunConfig{Workload: "toy", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.AnalyzeImbalance([]string{"ghost"}, "CYCLES", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Values {
		if v != 0 {
			t.Fatal("ghost scope produced values")
		}
	}
}

func TestSessionThroughFacade(t *testing.T) {
	src, err := WorkloadProgram("toy")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(Fig1Tree(), src)
	if s.View() != ViewCC {
		t.Fatal("default view wrong")
	}
	path := s.HotPath(0)
	if len(path) == 0 {
		t.Fatal("no hot path through facade")
	}
	s.SwitchView(ViewFlat)
	if err := s.FlattenOnce(); err != nil {
		t.Fatal(err)
	}
	if _, err := WorkloadProgram("ghost"); err == nil {
		t.Fatal("unknown workload program resolved")
	}
}

func TestAnalyzeScalingThroughFacade(t *testing.T) {
	small, err := Run(RunConfig{Workload: "pflotran", Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(RunConfig{Workload: "pflotran", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeScaling(small.Experiment.Tree, big.Experiment.Tree, ScalingConfig{
		Metric: "CYCLES", Mode: WeakScaling, RanksSmall: 2, RanksBig: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Column <= 0 || res.Tree.Reg.ByID(res.Column).Name != "scaling loss" {
		t.Fatal("no scaling column")
	}
	// The excess is a column of the union; the input trees are only read.
	if big.Experiment.Tree.Reg.ByName("scaling loss") != nil {
		t.Fatal("AnalyzeScaling added a column to the big run's tree")
	}
}
