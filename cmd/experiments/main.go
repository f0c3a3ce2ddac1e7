// Command experiments regenerates every quantitative comparison recorded
// in EXPERIMENTS.md: for each figure and claim of the paper it runs the
// corresponding workload through the full pipeline and prints the paper's
// value next to the measured one. Run with:
//
//	go run ./cmd/experiments
package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/callpath"
	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/expdb"
	"repro/internal/imbalance"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/objview"
	"repro/internal/profile"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func row(id, what, paper, measured string) {
	fmt.Printf("%-12s %-52s %14s %14s\n", id, what, paper, measured)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func run() error {
	fmt.Printf("%-12s %-52s %14s %14s\n", "experiment", "quantity", "paper", "measured")
	fmt.Println(string(bytes.Repeat([]byte("-"), 96)))

	if err := fig2(); err != nil {
		return err
	}
	s3dTree, err := seqTree("s3d")
	if err != nil {
		return err
	}
	if err := fig3(s3dTree); err != nil {
		return err
	}
	if err := fig6(s3dTree); err != nil {
		return err
	}
	moabTree, err := seqTree("moab")
	if err != nil {
		return err
	}
	if err := fig4(moabTree); err != nil {
		return err
	}
	if err := fig5(moabTree); err != nil {
		return err
	}
	if err := fig7(); err != nil {
		return err
	}
	if err := scalingLoss(); err != nil {
		return err
	}
	if err := overhead(); err != nil {
		return err
	}
	if err := objectView(); err != nil {
		return err
	}
	return formats(moabTree)
}

// objectView checks that the Section IX object-level presentation agrees
// with the source-level attribution: the hottest procedure by
// per-instruction cycles is the chemistry kernel.
func objectView() error {
	spec, err := workloads.ByName("s3d")
	if err != nil {
		return err
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		return err
	}
	s, err := sampler.New(spec.Name, 0, 0, sampler.DefaultEvents(spec.Period))
	if err != nil {
		return err
	}
	vm, err := sim.New(im, sim.Config{Observer: s})
	if err != nil {
		return err
	}
	if err := vm.Run(); err != nil {
		return err
	}
	v, err := objview.New(im, []*profile.Profile{s.Profile()})
	if err != nil {
		return err
	}
	top := v.HotProcs(0, 1)
	name := "(none)"
	if len(top) > 0 {
		name = top[0].Name
	}
	row("E-OBJ", "object-level hottest procedure (§IX)", "chemistry", name)
	return nil
}

func seqTree(name string) (*core.Tree, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		return nil, err
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		return nil, err
	}
	s, err := sampler.New(spec.Name, 0, 0, sampler.DefaultEvents(spec.Period))
	if err != nil {
		return nil, err
	}
	vm, err := sim.New(im, sim.Config{Observer: s})
	if err != nil {
		return nil, err
	}
	if err := vm.Run(); err != nil {
		return nil, err
	}
	return correlate.Correlate(doc, s.Profile())
}

func fig2() error {
	t := core.Fig1Tree()
	// Verify every pair of Figure 2a and report a single exact/deviation
	// status; the golden tests in internal/core check all three views in
	// detail.
	checks := []struct {
		path       []string
		incl, excl float64
	}{
		{[]string{"m"}, 10, 0},
		{[]string{"m", "f"}, 7, 1},
		{[]string{"m", "f", "g"}, 6, 1},
		{[]string{"m", "f", "g", "g"}, 5, 1},
		{[]string{"m", "f", "g", "g", "h"}, 4, 4},
		{[]string{"m", "g"}, 3, 3},
	}
	exact := true
	for _, c := range checks {
		n := t.FindPath(c.path...)
		if n == nil || n.Incl.Get(0) != c.incl || n.Excl.Get(0) != c.excl {
			exact = false
		}
	}
	status := "exact"
	if !exact {
		status = "DEVIATES"
	}
	row("E-FIG2", "Figure 2a/2b/2c worked example (36 cost pairs)", "exact", status)
	return nil
}

func fig3(t *core.Tree) error {
	cyc := t.Reg.ByName("CYCLES").ID
	react := t.FindFirst("chemkin_m_reaction_rate_")
	row("E-FIG3", "S3D: reaction-rate inclusive cycles",
		"41.4%", pct(react.Incl.Get(cyc)/t.Total(cyc)))
	loop := t.FindFirst("loop at integrate_erk.f90: 82")
	row("E-FIG3", "S3D: RK loop (integrate_erk.f90:82) inclusive",
		"97.9%", pct(loop.Incl.Get(cyc)/t.Total(cyc)))
	row("E-FIG3", "S3D: RK loop exclusive",
		"0.0%", pct(loop.Excl.Get(cyc)/t.Total(cyc)))
	path := core.HotPath(t.Root, cyc, 0.5)
	end := path[len(path)-1]
	ends := "chemkin stmt"
	if end.File.String() != "chemkin_m.f90" {
		ends = "WRONG: " + end.Label()
	}
	row("E-FIG3", "S3D: hot path endpoint", "chemkin rates", ends)
	return nil
}

func fig6(t *core.Tree) error {
	waste, err := t.Reg.AddDerived("fpwaste", "$0*4 - $1")
	if err != nil {
		return err
	}
	releff, err := t.Reg.AddDerived("releff", "$1 / ($0*4)")
	if err != nil {
		return err
	}
	fv := core.BuildFlatView(t)
	var loops []*core.Node
	for _, s := range core.FlattenN(fv.Roots, 3) {
		if s.Kind == core.KindLoop {
			loops = append(loops, s)
		}
	}
	core.SortScopes(loops, core.SortSpec{MetricID: waste.ID, Exclusive: true})
	top := loops[0]
	name := "flux-diffusion loop"
	if top.File.String() != "transport_m.f90" {
		name = "WRONG: " + top.Label()
	}
	row("E-FIG6", "S3D: top FP-waste scope", "flux-diff loop", name)
	row("E-FIG6", "S3D: its share of total waste",
		"13.5%", pct(top.Excl.Get(waste.ID)/t.Root.Incl.Get(waste.ID)))
	row("E-FIG6", "S3D: its relative efficiency",
		"6%", pct(top.Excl.Get(releff.ID)))
	for _, l := range loops {
		if l.File.String() == "exp_avx.c" {
			row("E-FIG6", "S3D: exp-library loop efficiency",
				"39%", pct(l.Excl.Get(releff.ID)))
		}
	}
	return nil
}

func fig4(t *core.Tree) error {
	l1 := t.Reg.ByName("L1_DCM").ID
	cv := core.BuildCallersView(t)
	cv.ExpandAll()
	for _, r := range cv.Roots {
		if r.Name.String() != "_intel_fast_memset.A" {
			continue
		}
		row("E-FIG4", "MOAB: memset share of all L1 misses",
			"9.7%", pct(r.Incl.Get(l1)/t.Total(l1)))
		row("E-FIG4", "MOAB: memset caller contexts",
			"2", fmt.Sprintf("%d", len(r.Children)))
		kids := append([]*core.Node(nil), r.Children...)
		core.SortScopes(kids, core.SortSpec{MetricID: l1})
		row("E-FIG4", "MOAB: share via Sequence_data::create",
			"9.6%", pct(kids[0].Incl.Get(l1)/t.Total(l1)))
	}
	return nil
}

func fig5(t *core.Tree) error {
	cyc := t.Reg.ByName("CYCLES").ID
	l1 := t.Reg.ByName("L1_DCM").ID
	fv := core.BuildFlatView(t)
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
	var loop *core.Node
	for _, c := range gc.Children {
		if c.Kind == core.KindLoop {
			loop = c
		}
	}
	row("E-FIG5", "MOAB: get_coords loop share of cycles",
		"18.9%", pct(loop.Incl.Get(cyc)/t.Total(cyc)))
	var compare *core.Node
	core.Walk(gc, func(n *core.Node) bool {
		if n.Kind == core.KindAlien && n.Name.String() == "SequenceCompare" {
			compare = n
			return false
		}
		return true
	})
	row("E-FIG5", "MOAB: inlined compare share of L1 misses",
		"19.8%", pct(compare.Incl.Get(l1)/t.Total(l1)))
	return nil
}

func fig7() error {
	const ranks = 32
	run, err := callpath.Run(callpath.RunConfig{Workload: "pflotran", Ranks: ranks})
	if err != nil {
		return err
	}
	doc, profs, res := run.Doc, run.Profiles, run.Merged
	idle := res.Tree.Reg.ByName("IDLE").ID
	path := core.HotPath(res.Tree.Root, idle, 0.5)
	hits := "loop@384 + mpi_wait"
	var sawLoop, sawWait bool
	for _, n := range path {
		if n.Label() == "loop at timestepper.F90: 384" {
			sawLoop = true
		}
		if n.Name.String() == "mpi_wait" {
			sawWait = true
		}
	}
	if !sawLoop || !sawWait {
		hits = "WRONG"
	}
	row("E-FIG7", "PFLOTRAN: idleness hot path (32 ranks)", "loop@384", hits)
	rep, err := imbalance.Analyze(doc, profs,
		[]string{"main", "stepper_run", "loop at timestepper.F90: 384", "flow_solve"}, "CYCLES", 10)
	if err != nil {
		return err
	}
	row("E-FIG7", "PFLOTRAN: flow_solve imbalance factor (max/mean-1)",
		"uneven", fmt.Sprintf("%.2f", rep.ImbalanceFactor()))
	row("E-FIG7", "PFLOTRAN: per-rank work spread (max/min)",
		"scattered", fmt.Sprintf("%.2fx", rep.Stats.Max/rep.Stats.Min))
	return nil
}

func scalingLoss() error {
	small, err := callpath.Run(callpath.RunConfig{Workload: "pflotran", Ranks: 4})
	if err != nil {
		return err
	}
	big, err := callpath.Run(callpath.RunConfig{Workload: "pflotran", Ranks: 16})
	if err != nil {
		return err
	}
	res, err := callpath.AnalyzeScaling(small.Merged.Tree, big.Merged.Tree, callpath.ScalingConfig{
		Metric: "CYCLES", Mode: callpath.WeakScaling, RanksSmall: small.Merged.NRanks, RanksBig: big.Merged.NRanks,
	})
	if err != nil {
		return err
	}
	row("E-SCALE", "PFLOTRAN weak-scaling loss 4->16 ranks (§VI-A)",
		"localized", pct(res.LossFraction()))
	return nil
}

// nopObserver models free-running hardware counters: events are counted
// regardless of whether a profiler consumes them, so the profiler's own
// overhead is measured against this baseline, exactly as the paper's
// "unprofiled" runs still have counting hardware.
type nopObserver struct{}

func (nopObserver) OnCost(*sim.VM, int32, *sim.Counters) {}

func overhead() error {
	spec, err := workloads.ByName("s3d")
	if err != nil {
		return err
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		return err
	}
	timeRun := func(mk func() (sim.Observer, error)) (time.Duration, error) {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 9; rep++ {
			obs, err := mk()
			if err != nil {
				return 0, err
			}
			vm, err := sim.New(im, sim.Config{Observer: obs})
			if err != nil {
				return 0, err
			}
			start := time.Now()
			if err := vm.Run(); err != nil {
				return 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best, nil
	}
	base, err := timeRun(func() (sim.Observer, error) { return nopObserver{}, nil })
	if err != nil {
		return err
	}
	// The paper samples one or two counters; profile cycles at a
	// realistic period (1 sample per 100k cycles).
	sampled, err := timeRun(func() (sim.Observer, error) {
		return sampler.New(spec.Name, 0, 0,
			[]sampler.EventConfig{{Event: sim.EvCycles, Period: 100_000}})
	})
	if err != nil {
		return err
	}
	row("E-OVH", "cycle-sampling overhead vs counting hardware",
		"few percent", pct(float64(sampled-base)/float64(base)))
	// The time ratio moves with the machine; what the sampler does per
	// instruction does not. Count it for the timed configuration and for
	// the aggressive one, five events at period 1k.
	for _, c := range []struct {
		name   string
		events []sampler.EventConfig
	}{
		{"cycles at 100k", []sampler.EventConfig{{Event: sim.EvCycles, Period: 100_000}}},
		{"5 events at 1k", sampler.DefaultEvents(1000)},
	} {
		perInstr, perSample, err := samplingCost(im, spec.Name, c.events)
		if err != nil {
			return err
		}
		row("E-OVH", "samples per instruction, "+c.name, "-", fmt.Sprintf("%.3f%%", 100*perInstr))
		row("E-OVH", "sampler mallocs per 1k samples, "+c.name, "-", fmt.Sprintf("%.1f", 1000*perSample))
	}
	return nil
}

// samplingCost runs im once on counting hardware alone and once under a
// sampler for events, and returns samples per interpreted instruction and
// the heap allocations the sampler adds per sample.
func samplingCost(im *isa.Image, name string, events []sampler.EventConfig) (perInstr, perSample float64, err error) {
	run := func(obs sim.Observer) (mallocs uint64, steps int64, err error) {
		vm, err := sim.New(im, sim.Config{Observer: obs})
		if err != nil {
			return 0, 0, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = vm.Run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, vm.Steps, err
	}
	base, _, err := run(nopObserver{})
	if err != nil {
		return 0, 0, err
	}
	s, err := sampler.New(name, 0, 0, events)
	if err != nil {
		return 0, 0, err
	}
	sampled, steps, err := run(s)
	if err != nil {
		return 0, 0, err
	}
	n := float64(s.Samples())
	return n / float64(steps), (float64(sampled) - float64(base)) / n, nil
}

func formats(moab *core.Tree) error {
	e := expdb.New(moab)
	var xmlBuf, binBuf, v3Buf bytes.Buffer
	if err := e.WriteXML(&xmlBuf); err != nil {
		return err
	}
	if err := e.WriteBinary(&binBuf); err != nil {
		return err
	}
	if err := e.WriteBinaryV3(&v3Buf); err != nil {
		return err
	}
	row("E-FMT", "binary database vs XML size (§IX)",
		"more compact", fmt.Sprintf("%.1fx smaller", float64(xmlBuf.Len())/float64(binBuf.Len())))
	// v3 stores dense planes to open in O(index): on a small tree it is the
	// larger file, which is why the compact v2 writer stays.
	row("E-FMT", "mappable v3 database vs XML size", "-",
		fmt.Sprintf("%.2fx smaller", float64(xmlBuf.Len())/float64(v3Buf.Len())))
	return nil
}
