package callpath

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

// scalableProg builds an SPMD program with one perfectly weak-scaling
// phase (fixed per-rank work) and one non-scaling phase whose per-rank
// work grows with the rank count (e.g. an all-to-all-like exchange).
func scalableProg() *prog.Program {
	return prog.NewBuilder("scale").
		File("app.f90").
		Proc("compute", 10,
			prog.L(11, 100, prog.W(12, 100))).
		Proc("exchange", 20,
			// Work proportional to the number of ranks: scales badly.
			prog.Lx(21, prog.ScaledInt{X: nRanks{}, Num: 20, Den: 1},
				prog.W(22, 100))).
		Proc("main", 1,
			prog.C(2, "compute"),
			prog.C(3, "exchange"),
			prog.Sync(4)).
		Entry("main").MustBuild()
}

// nRanks evaluates to the rank count.
type nRanks struct{}

func (nRanks) Eval(p *prog.Params) int64 {
	if p == nil {
		return 1
	}
	return int64(p.NRanks)
}

// scaleRun simulates the program at the given width and merges the first
// keep ranks (all of them when keep <= 0), mimicking a quarantining merge
// where some rank files were dropped.
func scaleRun(t *testing.T, ranks, keep int) *merge.Result {
	t.Helper()
	im, err := lower.Lower(scalableProg(), lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Events: []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if keep > 0 && keep < len(profs) {
		profs = profs[:keep]
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// scaling runs AnalyzeScaling on two merges with their own rank counts.
func scaling(t *testing.T, small, big *merge.Result, cfg ScalingConfig) *ScalingResult {
	t.Helper()
	cfg.RanksSmall, cfg.RanksBig = small.NRanks, big.NRanks
	res, err := AnalyzeScaling(small.Tree, big.Tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWeakScalingLossAttribution(t *testing.T) {
	res := scaling(t, scaleRun(t, 2, 0), scaleRun(t, 8, 0), ScalingConfig{Metric: "CYCLES", Mode: WeakScaling})
	// compute scales perfectly: its excess is ~0. exchange grows from
	// 40*100 to 160*100 cycles per rank: excess ~12000.
	comp := res.Tree.FindPath("main", "compute")
	exch := res.Tree.FindPath("main", "exchange")
	if comp == nil || exch == nil {
		t.Fatal("scopes missing")
	}
	if ex := comp.Incl.Get(res.Column); math.Abs(ex) > 500 {
		t.Fatalf("compute excess = %g, want ~0", ex)
	}
	if ex := exch.Incl.Get(res.Column); ex < 10000 || ex > 14000 {
		t.Fatalf("exchange excess = %g, want ~12000", ex)
	}
	// The hot path over the loss column leads to exchange.
	found := false
	for _, n := range core.HotPath(res.Tree.Root, res.Column, 0.5) {
		if n.Name.String() == "exchange" {
			found = true
		}
	}
	if !found {
		t.Fatalf("scaling-loss hot path missed exchange")
	}
	if res.LossFraction() <= 0 || res.LossFraction() >= 1 {
		t.Fatalf("loss fraction = %g", res.LossFraction())
	}
	if res.TotalExcess <= 0 {
		t.Fatal("no total excess")
	}
}

func TestStrongScalingExpectation(t *testing.T) {
	// Under strong scaling the expectation divides the small run's cost
	// by the parallelism ratio, so even the perfectly weak-scaling
	// compute phase shows loss (its total work did not shrink).
	res := scaling(t, scaleRun(t, 2, 0), scaleRun(t, 8, 0),
		ScalingConfig{Metric: "CYCLES", Mode: StrongScaling, Name: "strong loss"})
	if d := res.Tree.Reg.ByID(res.Column); d.Name != "strong loss" || d.Formula != "$1 - 0.25*$0" {
		t.Fatalf("excess column = %q %q", d.Name, d.Formula)
	}
	comp := res.Tree.FindPath("main", "compute")
	// per-rank compute is 10000 cycles in both runs; strong expectation
	// is 10000/4 = 2500, so excess ~7500.
	if ex := comp.Incl.Get(res.Column); ex < 6500 || ex > 8500 {
		t.Fatalf("compute strong-scaling excess = %g, want ~7500", ex)
	}
}

// After a quarantining merge the merge's NRanks counts only the ranks
// folded, and normalizing by it keeps per-rank costs right.
func TestScalingRankCountsFromQuarantinedMerge(t *testing.T) {
	small := scaleRun(t, 2, 0)
	// Two ranks of the 8-wide run were "quarantined".
	big := scaleRun(t, 8, 6)
	if big.NRanks != 6 {
		t.Fatalf("NRanks = %d, want 6", big.NRanks)
	}
	res := scaling(t, small, big, ScalingConfig{Metric: "CYCLES", Mode: WeakScaling})
	// Per-rank exchange work is rank-count-proportional even in the
	// truncated merge: 160*100 − 40*100 = 12000 per rank.
	exch := res.Tree.FindPath("main", "exchange")
	if exch == nil {
		t.Fatal("exchange missing")
	}
	if ex := exch.Incl.Get(res.Column); ex < 10000 || ex > 14000 {
		t.Fatalf("exchange excess = %g, want ~12000", ex)
	}
	// Normalizing by the 8 ranks the run was launched with instead
	// undercounts every per-rank cost by a quarter.
	wrong, err := AnalyzeScaling(small.Tree, big.Tree, ScalingConfig{RanksSmall: 2, RanksBig: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wrong.TotalCost, res.TotalCost*6/8; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("TotalCost over 8 ranks = %g, want %g", got, want)
	}
}

func TestAnalyzeScalingErrors(t *testing.T) {
	small, big := scaleRun(t, 2, 0).Tree, scaleRun(t, 4, 0).Tree
	if _, err := AnalyzeScaling(small, big, ScalingConfig{Metric: "NOPE", RanksSmall: 2, RanksBig: 4}); err == nil {
		t.Fatal("missing metric accepted")
	}
	if _, err := AnalyzeScaling(small, big, ScalingConfig{RanksSmall: 0, RanksBig: 4}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := AnalyzeScaling(small, big, ScalingConfig{RanksSmall: 2, RanksBig: 4, Name: "l"}); err != nil {
		t.Fatal(err)
	}
	// The union already has a column of that name.
	if _, err := AnalyzeScaling(small, big, ScalingConfig{RanksSmall: 2, RanksBig: 4, Name: "in[big]"}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestScalingScopeOnlyInBigRun(t *testing.T) {
	// A scope absent from the small run contributes its full big-run
	// cost as excess.
	small := core.NewTree("s", nil)
	if _, err := small.Reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	sm := small.AddPath(core.Key{Kind: core.KindFrame, Name: core.Sym("main")})
	ss := sm.Child(core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 1}, true)
	ss.Base.Add(0, 100)
	small.ComputeMetrics()

	big := core.NewTree("b", nil)
	if _, err := big.Reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	bm := big.AddPath(core.Key{Kind: core.KindFrame, Name: core.Sym("main")})
	bs := bm.Child(core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 1}, true)
	bs.Base.Add(0, 100)
	extra := bm.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("newphase")}, true)
	es := extra.Child(core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 9}, true)
	es.Base.Add(0, 50)
	big.ComputeMetrics()

	res, err := AnalyzeScaling(small, big, ScalingConfig{Metric: "CYCLES", Mode: WeakScaling, RanksSmall: 1, RanksBig: 1})
	if err != nil {
		t.Fatal(err)
	}
	um := res.Tree.Root.Child(bm.Key, false)
	if ex := um.Child(extra.Key, false).Incl.Get(res.Column); ex != 50 {
		t.Fatalf("new phase excess = %g, want 50", ex)
	}
	if ex := um.Child(bs.Key, false).Incl.Get(res.Column); ex != 0 {
		t.Fatalf("matched stmt excess = %g, want 0", ex)
	}
}
