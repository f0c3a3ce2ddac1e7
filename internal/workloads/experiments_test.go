package workloads

// Shape tests for the paper's case-study figures (the per-figure experiment
// index lives in DESIGN.md; paper-vs-measured values in EXPERIMENTS.md).
// Absolute values come from the synthetic cost model; what these tests pin
// down is the *shape* each figure demonstrates: who dominates, by roughly
// what factor, and where hot paths end.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/imbalance"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

// runSeq runs a sequential workload through the full pipeline.
func runSeq(t testing.TB, spec Spec) *core.Tree {
	t.Helper()
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(spec.Name, 0, 0, sampler.DefaultEvents(spec.Period))
	if err != nil {
		t.Fatal(err)
	}
	vm, err := sim.New(im, sim.Config{Observer: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	tree, err := correlate.Correlate(doc, s.Profile())
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// runMPI runs an SPMD workload and returns the structure document, the raw
// profiles and the merged result.
func runMPI(t testing.TB, spec Spec, ranks int) (*structfile.Doc, []*profile.Profile, *merge.Result) {
	t.Helper()
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{
		NRanks: ranks,
		Params: spec.Params,
		Events: sampler.DefaultEvents(spec.Period),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	return doc, profs, res
}

func shareOf(t *core.Tree, n *core.Node, col int) float64 {
	if n == nil {
		return 0
	}
	tot := t.Total(col)
	if tot == 0 {
		return 0
	}
	return n.Incl.Get(col) / tot
}

func col(t testing.TB, tree *core.Tree, name string) int {
	d := tree.Reg.ByName(name)
	if d == nil {
		t.Fatalf("metric %q missing", name)
	}
	return d.ID
}

func TestWorkloadRegistry(t *testing.T) {
	names := Names()
	if len(names) != 4 {
		t.Fatalf("workloads = %v", names)
	}
	for _, n := range names {
		spec, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Program == nil || spec.Name != n {
			t.Fatalf("bad spec for %q", n)
		}
		if err := spec.Program.Validate(); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestToyPipeline(t *testing.T) {
	tree := runSeq(t, Toy())
	// Recursion: two nested instances of g under m -> g is impossible
	// (recursion happens via f? no: g recurses on itself).
	if tree.FindPath("m", "g", "g") == nil && tree.FindPath("m", "f", "g", "g") == nil {
		t.Fatal("no recursive g chain found")
	}
	// h's loop nest appears.
	if tree.FindFirst("loop at file2.c: 8") == nil {
		t.Fatal("h's outer loop missing")
	}
}

// E-FIG3: the S3D Calling Context View hot path (Figure 3).
func TestFig3S3DHotPath(t *testing.T) {
	tree := runSeq(t, S3D())
	cyc := col(t, tree, "CYCLES")

	path := core.HotPath(tree.Root, cyc, 0.5)
	var labels []string
	for _, n := range path {
		labels = append(labels, n.Label())
	}
	joined := strings.Join(labels, " | ")
	for _, want := range []string{"main", "solve_driver", "integrate",
		"loop at integrate_erk.f90: 82", "rhsf", "chemkin_m_reaction_rate_"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("hot path %q misses %q", joined, want)
		}
	}
	// EXPERIMENTS.md caveat 3: the path goes on past the routine the paper
	// highlights, to a statement of its chemistry loop.
	if end := path[len(path)-1]; end.Kind != core.KindStmt || end.Parent.Kind != core.KindLoop || end.EnclosingFrame().Label() != "chemkin_m_reaction_rate_" {
		t.Fatalf("hot path %q does not end at a statement in a loop of chemkin_m_reaction_rate_", joined)
	}

	// The reaction-rate routine holds ~41.4% of inclusive cycles.
	react := tree.FindFirst("chemkin_m_reaction_rate_")
	if s := shareOf(tree, react, cyc); s < 0.38 || s > 0.47 {
		t.Fatalf("reaction rate share = %.3f, want ~0.414", s)
	}

	// The loop at integrate_erk.f90:82: ~97.9% inclusive, ~0.0%
	// exclusive.
	loop := tree.FindFirst("loop at integrate_erk.f90: 82")
	if loop == nil {
		t.Fatal("RK loop missing")
	}
	if s := shareOf(tree, loop, cyc); s < 0.95 {
		t.Fatalf("RK loop inclusive share = %.3f, want ~0.979", s)
	}
	if e := loop.Excl.Get(cyc) / tree.Total(cyc); e > 0.005 {
		t.Fatalf("RK loop exclusive share = %.4f, want ~0", e)
	}
}

// E-FIG6: derived floating-point waste and relative efficiency (Figure 6).
func TestFig6DerivedWaste(t *testing.T) {
	tree := runSeq(t, S3D())
	cyc := col(t, tree, "CYCLES")
	flops := col(t, tree, "FLOPS")

	waste, err := tree.Reg.AddDerived("fpwaste", "$0*4 - $1")
	if err != nil {
		t.Fatal(err)
	}
	releff, err := tree.Reg.AddDerived("releff", "$1 / ($0*4)")
	if err != nil {
		t.Fatal(err)
	}
	_ = cyc
	_ = flops

	// Flatten the Flat View to loop level and rank by waste, as the
	// paper does in Figure 6.
	fv := core.BuildFlatView(tree)
	scopes := core.FlattenN(fv.Roots, 3) // modules -> files -> procs -> their children
	var loops []*core.Node
	for _, s := range scopes {
		if s.Kind == core.KindLoop {
			loops = append(loops, s)
		}
	}
	if len(loops) < 5 {
		t.Fatalf("only %d loops in flattened view", len(loops))
	}
	// Rank by *exclusive* waste: outer control loops hold their cost in
	// callees, so exclusive ranking surfaces the leaf compute loops the
	// way Figure 6 does.
	core.SortScopes(loops, core.SortSpec{MetricID: waste.ID, Exclusive: true})

	top := loops[0]
	if top.Label() != "loop at transport_m.f90: 310" {
		var lbls []string
		for _, l := range loops {
			lbls = append(lbls, l.Label())
		}
		t.Fatalf("top waste loop = %q, want flux diffusion; ranking: %v", top.Label(), lbls)
	}
	// Its relative efficiency is ~6%.
	if e := top.Excl.Get(releff.ID); e < 0.04 || e > 0.09 {
		t.Fatalf("flux loop efficiency = %.3f, want ~0.06", e)
	}
	// Its share of total waste is ~13.5% in the paper; our calibration
	// gives ~16%.
	totalWaste := tree.Root.Incl.Get(waste.ID)
	if s := top.Excl.Get(waste.ID) / totalWaste; s < 0.10 || s > 0.25 {
		t.Fatalf("flux loop waste share = %.3f, want ~0.135", s)
	}
	// The exponential's loop runs at ~39%: "fairly tightly tuned".
	var expLoop *core.Node
	for _, l := range loops {
		if l.File.String() == "exp_avx.c" {
			expLoop = l
		}
	}
	if expLoop == nil {
		t.Fatal("exp loop missing from flattened view")
	}
	if e := expLoop.Excl.Get(releff.ID); e < 0.33 || e > 0.45 {
		t.Fatalf("exp loop efficiency = %.3f, want ~0.39", e)
	}
}

// E-FIG4: the MOAB Callers View for the compiler's memset (Figure 4).
func TestFig4MemsetCallers(t *testing.T) {
	tree := runSeq(t, MOAB())
	l1 := col(t, tree, "L1_DCM")

	cv := core.BuildCallersView(tree)
	cv.ExpandAll()
	var memset *core.Node
	for _, r := range cv.Roots {
		if r.Name.String() == "_intel_fast_memset.A" {
			memset = r
		}
	}
	if memset == nil {
		t.Fatal("memset root row missing from Callers View")
	}
	if !memset.NoSource {
		t.Fatal("memset should be binary-only")
	}
	// ~9.7% of total L1 misses.
	if s := memset.Incl.Get(l1) / tree.Total(l1); s < 0.075 || s > 0.12 {
		t.Fatalf("memset L1 share = %.3f, want ~0.097", s)
	}
	// Called from exactly two contexts; Sequence_data::create dominates
	// (9.6% of the 9.7%).
	if len(memset.Children) != 2 {
		var lbls []string
		for _, c := range memset.Children {
			lbls = append(lbls, c.Label())
		}
		t.Fatalf("memset callers = %v, want 2", lbls)
	}
	kids := append([]*core.Node(nil), memset.Children...)
	core.SortScopes(kids, core.SortSpec{MetricID: l1})
	if kids[0].Name.String() != "Sequence_data::create" {
		t.Fatalf("dominant caller = %q", kids[0].Name)
	}
	if frac := kids[0].Incl.Get(l1) / memset.Incl.Get(l1); frac < 0.95 {
		t.Fatalf("create's fraction of memset misses = %.3f, want ~0.99", frac)
	}
}

// E-FIG5: the MOAB Flat View with attribution through inlining (Figure 5).
func TestFig5FlatInlining(t *testing.T) {
	tree := runSeq(t, MOAB())
	cyc := col(t, tree, "CYCLES")
	l1 := col(t, tree, "L1_DCM")

	fv := core.BuildFlatView(tree)
	var gc *core.Node
	for _, lm := range fv.Roots {
		core.Walk(lm, func(n *core.Node) bool {
			if n.Kind == core.KindProc && n.Name.String() == "MBCore::get_coords" {
				gc = n
				return false
			}
			return true
		})
	}
	if gc == nil {
		t.Fatal("get_coords missing from Flat View")
	}
	// All of the routine's cycles are in its loop, which holds ~18.9%
	// of the execution total.
	var loop *core.Node
	for _, c := range gc.Children {
		if c.Kind == core.KindLoop {
			loop = c
		}
	}
	if loop == nil {
		t.Fatal("get_coords loop missing")
	}
	if s := loop.Incl.Get(cyc) / tree.Total(cyc); s < 0.16 || s > 0.23 {
		t.Fatalf("get_coords loop share = %.3f, want ~0.189", s)
	}
	if frac := loop.Incl.Get(cyc) / gc.Incl.Get(cyc); frac < 0.99 {
		t.Fatalf("loop fraction of routine = %.3f, want ~1", frac)
	}

	// The hierarchy below: inlined find > inlined loop > inlined
	// compare.
	var find *core.Node
	for _, c := range loop.Children {
		if c.Kind == core.KindAlien && c.Name.String() == "SequenceManager::find" {
			find = c
		}
	}
	if find == nil {
		t.Fatal("inlined find missing under the loop")
	}
	var rbLoop *core.Node
	for _, c := range find.Children {
		if c.Kind == core.KindLoop {
			rbLoop = c
		}
	}
	if rbLoop == nil {
		t.Fatal("inlined search loop missing under find")
	}
	var compare *core.Node
	for _, c := range rbLoop.Children {
		if c.Kind == core.KindAlien && c.Name.String() == "SequenceCompare" {
			compare = c
		}
	}
	if compare == nil {
		t.Fatal("inlined compare missing under the search loop")
	}
	// The comparison operator accounts for ~19.8% of total L1 misses.
	if s := compare.Incl.Get(l1) / tree.Total(l1); s < 0.17 || s > 0.24 {
		t.Fatalf("compare L1 share = %.3f, want ~0.198", s)
	}
}

// E-FIG7: PFLOTRAN load imbalance (Figure 7).
func TestFig7LoadImbalance(t *testing.T) {
	spec := PFLOTRAN()
	const ranks = 16
	doc, profs, res := runMPI(t, spec, ranks)

	idle := col(t, res.Tree, "IDLE")
	cyc := col(t, res.Tree, "CYCLES")

	// Hot-path analysis over total idleness drills into the main
	// iteration loop at timestepper.F90:384.
	hp := core.HotPath(res.Tree.Root, idle, 0.5)
	var joined []string
	for _, n := range hp {
		joined = append(joined, n.Label())
	}
	path := strings.Join(joined, " | ")
	if !strings.Contains(path, "loop at timestepper.F90: 384") {
		t.Fatalf("idleness hot path misses the time-stepping loop: %q", path)
	}
	if !strings.Contains(path, "mpi_wait") {
		t.Fatalf("idleness hot path misses mpi_wait: %q", path)
	}

	// Per-rank inclusive cycles at the loop scatter unevenly.
	rep, err := imbalance.Analyze(doc, profs,
		[]string{"main", "stepper_run", "loop at timestepper.F90: 384"}, "CYCLES", 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.N != ranks {
		t.Fatalf("series length = %d", rep.Stats.N)
	}
	if rep.Stats.Min <= 0 {
		t.Fatal("some rank has no cycles at the loop")
	}
	// With barriers inside the loop every rank's wall time there is
	// equal; the *work* distribution is what scatters. Check the
	// flow_solve work instead.
	work, err := imbalance.Analyze(doc, profs,
		[]string{"main", "stepper_run", "loop at timestepper.F90: 384", "flow_solve"}, "CYCLES", 8)
	if err != nil {
		t.Fatal(err)
	}
	if f := work.ImbalanceFactor(); f < 0.1 {
		t.Fatalf("flow_solve imbalance factor = %.3f, want > 0.1", f)
	}
	if work.Stats.Max < 1.3*work.Stats.Min {
		t.Fatalf("work spread too small: min=%g max=%g", work.Stats.Min, work.Stats.Max)
	}

	// The merged summary stats expose the same imbalance without
	// per-rank columns (Section VII).
	fs := res.Tree.FindPath("main", "stepper_run", "loop at timestepper.F90: 384", "flow_solve")
	if fs == nil {
		t.Fatal("flow_solve missing from merged tree")
	}
	if f := res.Stats(fs, cyc).ImbalanceFactor(); f < 0.1 {
		t.Fatalf("merged imbalance factor = %.3f", f)
	}

	// Render the report (Figure 7's three graphs) and sanity-check it.
	var b strings.Builder
	if err := work.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"per-rank (scatter):", "sorted:", "histogram:", "imbalance="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// E-OVH: sampling overhead stays small at realistic sampling rates
// (Section I: "accurate and precise call path profiles for only a few
// percent overhead"). Wall-clock comparison lives in the benchmarks; here
// we check the structural driver of overhead: samples are rare relative to
// interpreted instructions.
func TestSamplingOverheadFewPercent(t *testing.T) {
	spec := S3D()
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(spec.Name, 0, 0, sampler.DefaultEvents(50_000))
	if err != nil {
		t.Fatal(err)
	}
	vm, err := sim.New(im, sim.Config{Observer: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Samples() == 0 {
		t.Fatal("no samples at all")
	}
	ratio := float64(s.Samples()) / float64(vm.Steps)
	if ratio > 0.05 {
		t.Fatalf("samples per interpreted instruction = %.4f, want < 0.05", ratio)
	}
}
