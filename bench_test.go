// Package repro's root benchmark harness: one benchmark per paper artifact
// (Figures 2–7 and the quantitative claims of Sections I and VII), plus
// ablation benches for the design choices called out in DESIGN.md §6.
// Regenerate everything with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/imbalance"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/render"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// --- shared fixtures -------------------------------------------------------

func mustSeqTree(b testing.TB, name string) *core.Tree {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sampler.New(spec.Name, 0, 0, sampler.DefaultEvents(spec.Period))
	if err != nil {
		b.Fatal(err)
	}
	vm, err := sim.New(im, sim.Config{Observer: s})
	if err != nil {
		b.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		b.Fatal(err)
	}
	tree, err := correlate.Correlate(doc, s.Profile())
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func mustMPIProfiles(b testing.TB, name string, ranks int) (*structfile.Doc, []*profile.Profile) {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		b.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params,
		Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		b.Fatal(err)
	}
	return doc, profs
}

// syntheticCCT builds a CCT with about n scopes, with recursion, loops and
// a realistic branching factor, for the scalability benches (E-SCALE-*).
func syntheticCCT(n int, seed int64) *core.Tree {
	rng := rand.New(rand.NewSource(seed))
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		panic(err)
	}
	t := core.NewTree("synth", reg)
	procs := make([]string, 40)
	for i := range procs {
		procs[i] = fmt.Sprintf("proc%02d", i)
	}
	cur := t.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("main.c")}, true)
	stack := []*core.Node{cur}
	// addChild tracks the node count incrementally; Child() may return an
	// existing scope, which must not count twice.
	created := 1
	addChild := func(parent *core.Node, k core.Key) *core.Node {
		before := len(parent.Children)
		c := parent.Child(k, true)
		if len(parent.Children) != before {
			created++
		}
		return c
	}
	for created < n {
		op := rng.Intn(6)
		if len(stack) > 30 {
			op = 5 // keep call chains at realistic depths
		}
		switch op {
		case 0, 1:
			name := procs[rng.Intn(len(procs))]
			fr := addChild(stack[len(stack)-1], core.Key{
				Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym(name + ".c"),
				ID: uint64(rng.Intn(8)),
			})
			fr.CallLine = rng.Intn(200) + 1
			fr.CallFile = core.Sym("x.c")
			stack = append(stack, fr)
		case 2:
			l := addChild(stack[len(stack)-1], core.Key{Kind: core.KindLoop, File: core.Sym("x.c"), Line: rng.Intn(300) + 1})
			stack = append(stack, l)
		case 3, 4:
			s := addChild(stack[len(stack)-1], core.Key{Kind: core.KindStmt, File: core.Sym("x.c"), Line: rng.Intn(500) + 1})
			s.Base.Add(0, float64(rng.Intn(100)+1))
		case 5:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	t.ComputeMetrics()
	return t
}

// --- E-FIG2: the worked example's three views -------------------------------

func BenchmarkFig2Views(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := core.Fig1Tree()
		cv := core.BuildCallersView(t)
		cv.ExpandAll()
		fv := core.BuildFlatView(t)
		if len(cv.Roots) != 4 || len(fv.Roots) != 1 {
			b.Fatal("figure 2 views wrong")
		}
	}
}

// --- E-FIG3: hot path analysis on the S3D profile ---------------------------

func BenchmarkFig3HotPath(b *testing.B) {
	tree := mustSeqTree(b, "s3d")
	cyc := tree.Reg.ByName("CYCLES").ID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.HotPath(tree.Root, cyc, 0.5)
		if len(p) < 5 {
			b.Fatal("hot path too short")
		}
	}
}

// BenchmarkFig3Pipeline measures the whole Figure 3 reproduction: simulate,
// sample, recover structure, correlate.
func BenchmarkFig3Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tree := mustSeqTree(b, "s3d")
		if tree.NumNodes() == 0 {
			b.Fatal("empty tree")
		}
	}
}

// --- E-FIG4: Callers View construction on the MOAB profile ------------------

func BenchmarkFig4CallersView(b *testing.B) {
	tree := mustSeqTree(b, "moab")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv := core.BuildCallersView(tree)
		cv.ExpandAll()
		if len(cv.Roots) == 0 {
			b.Fatal("no roots")
		}
	}
}

// --- E-FIG5: Flat View with inlined scopes -----------------------------------

func BenchmarkFig5FlatView(b *testing.B) {
	tree := mustSeqTree(b, "moab")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fv := core.BuildFlatView(tree)
		if len(fv.Roots) == 0 {
			b.Fatal("no modules")
		}
	}
}

// --- E-FIG6: derived metric definition and evaluation ------------------------

func BenchmarkFig6DerivedMetrics(b *testing.B) {
	tree := mustSeqTree(b, "s3d")
	if _, err := tree.Reg.AddDerived("fpwaste", "$0*4 - $1"); err != nil {
		b.Fatal(err)
	}
	if _, err := tree.Reg.AddDerived("releff", "$1 / ($0*4)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.ApplyDerivedTree(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-FIG7: load-imbalance analysis -----------------------------------------

func BenchmarkFig7ImbalanceAnalysis(b *testing.B) {
	doc, profs := mustMPIProfiles(b, "pflotran", 16)
	path := []string{"main", "stepper_run", "loop at timestepper.F90: 384", "flow_solve"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := imbalance.Analyze(doc, profs, path, "CYCLES", 10)
		if err != nil {
			b.Fatal(err)
		}
		if rep.ImbalanceFactor() <= 0 {
			b.Fatal("no imbalance")
		}
	}
}

// --- E-OVH: sampling overhead (Section I's "few percent") --------------------

// nopObserver models free-running hardware counters (counting costs the
// application nothing extra); the profiler's own overhead is the
// difference between the sampled runs and this baseline.
type nopObserver struct{}

func (nopObserver) OnCost(*sim.VM, int32, *sim.Counters) {}

func benchVM(b *testing.B, mk func() (sim.Observer, error)) {
	spec, err := workloads.ByName("s3d")
	if err != nil {
		b.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cfg sim.Config
		if mk != nil {
			obs, err := mk()
			if err != nil {
				b.Fatal(err)
			}
			cfg.Observer = obs
		}
		vm, err := sim.New(im, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplingOverhead(b *testing.B) {
	cyclesAt := func(period uint64) func() (sim.Observer, error) {
		return func() (sim.Observer, error) {
			return sampler.New("s3d", 0, 0, []sampler.EventConfig{{Event: sim.EvCycles, Period: period}})
		}
	}
	b.Run("no-observer", func(b *testing.B) { benchVM(b, nil) })
	b.Run("counting-hardware", func(b *testing.B) {
		benchVM(b, func() (sim.Observer, error) { return nopObserver{}, nil })
	})
	b.Run("cycles-period=1k", func(b *testing.B) { benchVM(b, cyclesAt(1000)) })
	b.Run("cycles-period=10k", func(b *testing.B) { benchVM(b, cyclesAt(10_000)) })
	b.Run("cycles-period=100k", func(b *testing.B) { benchVM(b, cyclesAt(100_000)) })
	b.Run("all-events-period=1k", func(b *testing.B) {
		benchVM(b, func() (sim.Observer, error) {
			return sampler.New("s3d", 0, 0, sampler.DefaultEvents(1000))
		})
	})
}

// --- E-SCALE-CCT: view construction and metric computation vs tree size ------

var cctSizes = []int{1_000, 10_000, 100_000}

func BenchmarkCCTConstructionSize(b *testing.B) {
	for _, n := range cctSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := syntheticCCT(n, 42)
				if t.NumNodes() < n {
					b.Fatal("tree too small")
				}
			}
		})
	}
}

func BenchmarkMetricComputationSize(b *testing.B) {
	for _, n := range cctSizes {
		t := syntheticCCT(n, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.ComputeMetrics()
			}
		})
	}
}

func BenchmarkCallersViewSize(b *testing.B) {
	for _, n := range cctSizes {
		t := syntheticCCT(n, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cv := core.BuildCallersView(t)
				cv.ExpandAll()
			}
		})
	}
}

func BenchmarkFlatViewSize(b *testing.B) {
	for _, n := range cctSizes {
		t := syntheticCCT(n, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BuildFlatView(t)
			}
		})
	}
}

func BenchmarkHotPathSize(b *testing.B) {
	for _, n := range cctSizes {
		t := syntheticCCT(n, 42)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.HotPath(t.Root, 0, 0.5)
			}
		})
	}
}

// --- E-SCALE-LAZY: lazy vs eager Callers View (Section VII) ------------------

func BenchmarkLazyVsEagerCallers(b *testing.B) {
	t := syntheticCCT(100_000, 7)
	b.Run("lazy-roots-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BuildCallersView(t)
		}
	})
	b.Run("lazy-expand-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cv := core.BuildCallersView(t)
			cv.Expand(cv.Roots[0])
		}
	})
	b.Run("eager-expand-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cv := core.BuildCallersView(t)
			cv.ExpandAll()
		}
	})
}

// --- Ablation: exposed-instance aggregation vs naive summing -----------------

func BenchmarkExposedVsNaive(b *testing.B) {
	t := syntheticCCT(100_000, 11)
	b.Run("exposed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BuildCallersView(t)
		}
	})
	b.Run("naive-overcounting", func(b *testing.B) {
		// The incorrect baseline: sum every instance with no exposure
		// check (faster, but overcounts recursion — Section IV-B).
		for i := 0; i < b.N; i++ {
			sums := map[string]float64{}
			core.Walk(t.Root, func(n *core.Node) bool {
				if n.Kind == core.KindFrame {
					sums[n.Name.String()] += n.Incl.Get(0)
				}
				return true
			})
		}
	})
}

// --- E-SCALE-MERGE: multi-rank merge with summary statistics -----------------

func BenchmarkMergeRanks(b *testing.B) {
	for _, ranks := range []int{4, 16, 64} {
		doc, profs := mustMPIProfiles(b, "pflotran", ranks)
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := merge.Profiles(doc, profs)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.AddSummaries(0, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelMerge measures the shard/reduce merge pipeline on a
// 64-rank workload at 1/2/4/8 workers; jobs=1 is the sequential baseline
// the equivalence harness (internal/merge) pins the others to.
func BenchmarkParallelMerge(b *testing.B) {
	doc, profs := mustMPIProfiles(b, "pflotran", 64)
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := merge.ProfilesJobs(doc, profs, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if res.NRanks != 64 {
					b.Fatal("wrong rank count")
				}
			}
		})
	}
}

// BenchmarkProfileCodec measures the measurement-file codec on its own:
// every rank of the 64-rank fixture written and read back.
func BenchmarkProfileCodec(b *testing.B) {
	_, profs := mustMPIProfiles(b, "pflotran", 64)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range profs {
			buf.Reset()
			if err := p.Write(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := profile.Read(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSamplerRecord measures the sampler's trie insert: a new profile
// takes 512 contexts (depth up to 12 over a 24-address alphabet, so
// prefixes are shared), the first sample of each creating its frames and
// row, seven more finding them.
func BenchmarkSamplerRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type context struct {
		path []uint64
		leaf uint64
	}
	contexts := make([]context, 512)
	for i := range contexts {
		path := make([]uint64, rng.Intn(13))
		for j := range path {
			path[j] = 0x400000 + 8*uint64(rng.Intn(24))
		}
		contexts[i] = context{path, 0x500000 + 4*uint64(rng.Intn(24))}
	}
	metrics := []profile.MetricInfo{{Name: "CYCLES", Unit: "cycles", Period: 1000}, {Name: "L1_DCM", Unit: "misses", Period: 100}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profile.NewProfile("bench", 0, 0, metrics)
		for round := 0; round < 8; round++ {
			for _, c := range contexts {
				p.Record(c.path, c.leaf, round&1, 1000)
			}
		}
	}
}

// --- E-FMT: XML vs compact binary database (Section IX) ----------------------

func dbFixture(b *testing.B) *expdb.Experiment {
	b.Helper()
	return expdb.New(mustSeqTree(b, "moab"))
}

func BenchmarkDBEncodeXML(b *testing.B) {
	e := dbFixture(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.WriteXML(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

func BenchmarkDBEncodeBinary(b *testing.B) {
	e := dbFixture(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := e.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

func BenchmarkDBDecodeXML(b *testing.B) {
	e := dbFixture(b)
	var buf bytes.Buffer
	if err := e.WriteXML(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expdb.ReadXML(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBDecodeBinary(b *testing.B) {
	e := dbFixture(b)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expdb.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-RENDER: tree-tabular rendering (Section VII) --------------------------

func BenchmarkRenderViews(b *testing.B) {
	t := syntheticCCT(10_000, 3)
	b.Run("cct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := render.RenderTree(io.Discard, t, render.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cct-top5-depth6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := render.RenderTree(io.Discard, t, render.Options{TopN: 5, MaxDepth: 6}); err != nil {
				b.Fatal(err)
			}
		}
	})
	fv := core.BuildFlatView(t)
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := render.RenderFlat(io.Discard, fv, t, render.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- HTML export and interactive session --------------------------------------

func BenchmarkRenderHTMLReport(b *testing.B) {
	t := syntheticCCT(10_000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := render.RenderHTMLReport(io.Discard, t, "synth", 0, render.Options{TopN: 10, MaxDepth: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionVisibleRows(b *testing.B) {
	t := syntheticCCT(100_000, 5)
	s := engine.NewSession(engine.NewSnapshot(expdb.New(t)))
	s.HotPath(0) // expand a realistic working set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.VisibleRows()) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkImageFingerprint(b *testing.B) {
	spec, err := workloads.ByName("s3d")
	if err != nil {
		b.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if im.Fingerprint() == 0 {
			b.Fatal("zero fingerprint")
		}
	}
}

// --- Formula engine ----------------------------------------------------------

func BenchmarkFormulaEval(b *testing.B) {
	e := metric.MustParse("$0*4 - $1 + min($2, $0/2)")
	env := metric.EnvFunc(func(id int) float64 { return float64(id + 1) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := e.Eval(env)
		if err != nil {
			b.Fatal(err)
		}
		if v == 0 {
			b.Fatal("unexpected zero")
		}
	}
}
