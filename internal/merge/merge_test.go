package merge

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

// spmdFixture runs a rank-skewed SPMD program and returns the structure
// document plus per-rank raw profiles.
func spmdFixture(t *testing.T, nranks int) (*structfile.Doc, []*profile.Profile) {
	t.Helper()
	p := prog.NewBuilder("spmd").
		File("solver.f90").
		Proc("compute", 10,
			prog.Lx(11, prog.ScaledInt{X: prog.RankInt{}, Num: 100, Den: 1, Off: 100},
				prog.W(12, 10))).
		Proc("main", 1,
			prog.C(2, "compute"),
			prog.Sync(3)).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: nranks, Events: []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 10},
		{Event: sim.EvIdle, Period: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return doc, profs
}

func TestProfilesSumsRanks(t *testing.T) {
	doc, profs := spmdFixture(t, 4)
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	if res.NRanks != 4 {
		t.Fatalf("NRanks = %d", res.NRanks)
	}
	var wantCycles float64
	for _, p := range profs {
		wantCycles += float64(p.Totals()[p.MetricIndex("CYCLES")])
	}
	cyc := res.Tree.Reg.ByName("CYCLES")
	if cyc == nil {
		t.Fatal("CYCLES column missing")
	}
	if got := res.Tree.Total(cyc.ID); got != wantCycles {
		t.Fatalf("summed cycles = %g, want %g", got, wantCycles)
	}
}

func TestProfilesStats(t *testing.T) {
	doc, profs := spmdFixture(t, 4)
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	cyc := res.Tree.Reg.ByName("CYCLES").ID
	compute := res.Tree.FindPath("main", "compute")
	if compute == nil {
		t.Fatal("compute scope missing")
	}
	st := res.Stats(compute, cyc)
	if st.N != 4 {
		t.Fatalf("stats N = %d, want 4", st.N)
	}
	// Rank r does (100 + 100 r) * 10 cycles in compute: 1000, 2000,
	// 3000, 4000 (sampled, so approximately).
	if math.Abs(st.Mean()-2500) > 100 {
		t.Fatalf("mean = %g, want ~2500", st.Mean())
	}
	if st.Max < st.Mean() || st.Min > st.Mean() {
		t.Fatal("min/mean/max ordering broken")
	}
	// Imbalance factor: max/mean - 1 = 4000/2500 - 1 = 0.6.
	if f := res.Stats(compute, cyc).ImbalanceFactor(); math.Abs(f-0.6) > 0.1 {
		t.Fatalf("imbalance factor = %g, want ~0.6", f)
	}
}

func TestProfilesIdlenessConcentratedOnFastRanks(t *testing.T) {
	doc, profs := spmdFixture(t, 4)
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	idle := res.Tree.Reg.ByName("IDLE")
	if idle == nil {
		t.Fatal("IDLE column missing")
	}
	// Total idleness = sum over ranks of (max - own) ~ 3000+2000+1000+0.
	if tot := res.Tree.Total(idle.ID); math.Abs(tot-6000) > 300 {
		t.Fatalf("total idleness = %g, want ~6000", tot)
	}
	// The idleness hot path leads into the wait procedure.
	hp := core.HotPath(res.Tree.Root, idle.ID, 0.5)
	last := hp[len(hp)-1]
	found := false
	for _, n := range hp {
		if n.Name.String() == lower.WaitProcName {
			found = true
		}
	}
	if !found {
		t.Fatalf("idleness hot path misses %s (ends at %q)", lower.WaitProcName, last.Label())
	}
}

func TestAddSummaries(t *testing.T) {
	doc, profs := spmdFixture(t, 4)
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	cyc := res.Tree.Reg.ByName("CYCLES").ID
	if err := res.AddSummaries(cyc, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
		t.Fatal(err)
	}
	mean := res.Tree.Reg.ByName("CYCLES (mean)")
	maxCol := res.Tree.Reg.ByName("CYCLES (max)")
	if mean == nil || maxCol == nil {
		t.Fatal("summary columns missing")
	}
	compute := res.Tree.FindPath("main", "compute")
	if compute.Incl.Get(mean.ID) == 0 || compute.Incl.Get(maxCol.ID) == 0 {
		t.Fatal("summary values not written")
	}
	if compute.Incl.Get(maxCol.ID) < compute.Incl.Get(mean.ID) {
		t.Fatal("max < mean")
	}
	if err := res.AddSummaries(99, metric.OpMean); err == nil {
		t.Fatal("summary over bogus column accepted")
	}
}

// TestSummariesSurviveComputeMetrics: summary columns have no Base values,
// so recomputing a merged tree's presented metrics leaves every cell
// AddSummaries wrote as it is.
func TestSummariesSurviveComputeMetrics(t *testing.T) {
	doc, profs := spmdFixture(t, 4)
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AddSummaries(res.Tree.Reg.ByName("CYCLES").ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
		t.Fatal(err)
	}
	st := res.Tree.MetricStore()
	written := map[int][]float64{}
	for _, d := range res.Tree.Reg.Columns() {
		if d.Kind == metric.Summary {
			written[d.ID] = slices.Clone(st.ColRead(metric.PlaneIncl, d.ID))
			if !slices.ContainsFunc(written[d.ID], func(x float64) bool { return x != 0 }) {
				t.Fatalf("%s: AddSummaries wrote no cell", d.Name)
			}
		}
	}
	res.Tree.ComputeMetrics()
	for id, want := range written {
		if got := st.ColRead(metric.PlaneIncl, id); !slices.Equal(got, want) {
			t.Fatalf("%s: ComputeMetrics changed the summary column", res.Tree.Reg.ByID(id).Name)
		}
	}
}

func TestProfilesScopeAbsentFromSomeRanks(t *testing.T) {
	// A procedure that only rank 0 executes: its per-rank stats must
	// count zeros for the other ranks (min = 0, N = NRanks).
	p := prog.NewBuilder("partial").
		File("a.c").
		Proc("only0", 10, prog.W(11, 1000)).
		Proc("main", 1,
			prog.If{Line: 2, Cond: rank0{}, Then: []prog.Stmt{prog.C(3, "only0")}},
			prog.W(4, 100)).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: 3, Events: []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	only0 := res.Tree.FindPath("main", "only0")
	if only0 == nil {
		t.Fatal("only0 missing from merged tree")
	}
	st := res.Stats(only0, 0)
	if st.N != 3 {
		t.Fatalf("N = %d, want 3 (zero-padded)", st.N)
	}
	if st.Min != 0 {
		t.Fatalf("min = %g, want 0", st.Min)
	}
	if st.Max < 900 {
		t.Fatalf("max = %g, want ~1000", st.Max)
	}
}

type rank0 struct{}

func (rank0) Test(p *prog.Params, _ int, _ float64) bool { return p != nil && p.Rank == 0 }

func TestProfilesEmpty(t *testing.T) {
	if _, err := Profiles(nil, nil); err == nil {
		t.Fatal("empty profile list accepted")
	}
}

func TestAccumulatorStreamingMatchesBatch(t *testing.T) {
	doc, profs := spmdFixture(t, 4)
	batch, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(doc)
	for _, p := range profs {
		if err := acc.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := acc.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stream.NRanks != batch.NRanks {
		t.Fatalf("NRanks %d != %d", stream.NRanks, batch.NRanks)
	}
	for col := 0; col < batch.Tree.Reg.Len(); col++ {
		if stream.Tree.Total(col) != batch.Tree.Total(col) {
			t.Fatalf("column %d total differs: %g vs %g",
				col, stream.Tree.Total(col), batch.Tree.Total(col))
		}
	}
	// Stats agree at a known scope.
	bs := batch.Stats(batch.Tree.FindPath("main", "compute"), 0)
	ss := stream.Stats(stream.Tree.FindPath("main", "compute"), 0)
	if bs.N != ss.N || bs.Sum() != ss.Sum() || bs.Min != ss.Min || bs.Max != ss.Max {
		t.Fatalf("stats differ: %+v vs %+v", bs, ss)
	}
	// A finished accumulator refuses further use.
	if err := acc.Add(profs[0]); err == nil {
		t.Fatal("Add after Finish accepted")
	}
	if _, err := acc.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
}

func TestStatsUnknownScope(t *testing.T) {
	doc, profs := spmdFixture(t, 2)
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	ghost := &core.Node{}
	if st := res.Stats(ghost, 0); st.N != 0 {
		t.Fatal("stats for unknown scope not empty")
	}
	known := res.Tree.FindPath("main")
	if st := res.Stats(known, 99); st.N != 0 {
		t.Fatal("stats for unknown column not empty")
	}
}
