package core_test

// The calling context tree and the views, checked against internal/oracle,
// which states the paper's rules once: on Figure 2's tree, on the seeded
// generators of every shape, on deep random recursion, on trees no frame
// encloses, on the case-study workloads as merged, and from 8 goroutines.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/oracle"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// shapes are the kinds of tree randomCCTShape makes.
var shapes = map[string]oracle.CCTShape{
	"one column":  {Cols: 1},
	"wide":        {Cols: 4},
	"zero column": {Cols: 3, ZeroCol: true},
	"diff tree":   {Cols: 3, Negative: true},
	"everything":  {Cols: 4, ZeroCol: true, Negative: true},
}

func checkFlat(tree *core.Tree) error {
	return oracle.Flat(tree).Check(core.BuildFlatView(tree).Roots, 0)
}

func checkCallers(tree *core.Tree) error {
	v := core.BuildCallersView(tree)
	if err := v.ExpandAll(); err != nil {
		return err
	}
	return oracle.Callers(tree).Check(v.Roots, 0)
}

// TestCCTMatchesOracle checks Equations 1 and 2 at every scope, and Equation
// 3 from every scope at the default threshold and at 1, which an only child
// meets exactly, on Figure 2's tree and on generated trees of every shape.
func TestCCTMatchesOracle(t *testing.T) {
	check := func(name string, tree *core.Tree) {
		t.Helper()
		if err := oracle.CCT(tree).Check([]*core.Node{tree.Root}, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		core.Walk(tree.Root, func(n *core.Node) bool {
			for _, th := range []float64{0, 1} {
				if got, want := core.HotPath(n, 0, th), oracle.HotPath(n, 0, th); !slices.Equal(got, want) {
					t.Fatalf("%s: hot path from %s at t=%v: %v, want %v", name, n.Label(), th, core.Labels(got), core.Labels(want))
				}
			}
			return true
		})
	}
	check("Figure 2", core.Fig1Tree())
	for name, sh := range shapes {
		for seed := int64(1); seed <= 25; seed++ {
			tree, _ := oracle.RandomCCTShape(seed, 40*int(seed), sh)
			check(fmt.Sprintf("%s, seed %d", name, seed), tree)
		}
	}
}

// TestComputeMetricsEmptyBaseColumn: in a registry that interleaves raw and
// computed columns, as a diff union's does, a computed column below the
// last raw one has no base slab. Recomputation materializes none, leaves
// the presented values its owner wrote as they are, and leaves every other
// cell as the oracle's Equations 1-2 give it.
func TestComputeMetricsEmptyBaseColumn(t *testing.T) {
	reg := metric.NewRegistry()
	must := func(_ *metric.Desc, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.AddRaw("a", "s", 1))
	must(reg.AddComputed("a'", "s"))
	must(reg.AddRaw("b", "s", 1))
	must(reg.AddComputed("b'", "s"))
	src, _ := oracle.RandomCCTShape(11, 300, oracle.CCTShape{Cols: 2})
	tree := core.NewTree("mixed", reg)
	var copyTree func(from, to *core.Node)
	copyTree = func(from, to *core.Node) {
		for _, c := range from.Children {
			d := to.AppendChild(c.Key)
			d.Base.Add(0, c.Base.Get(0))
			d.Base.Add(2, c.Base.Get(1))
			copyTree(c, d)
		}
	}
	copyTree(src.Root, tree.Root)
	written := tree.Root.Children[0]
	written.Incl.Set(1, 9)
	written.Excl.Set(1, 9)

	want := oracle.CCT(tree) // the computed cells as written
	tree.ComputeMetrics()
	if col := tree.MetricStore().ColRead(metric.PlaneBase, 1); col != nil {
		t.Fatalf("computed column's base slab materialized (%d rows)", len(col))
	}
	if err := want.Check([]*core.Node{tree.Root}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestFlatViewMatchesOracle checks every row of the Flat View on Figure 2's
// tree and on seeded random trees of every shape the generator knows.
func TestFlatViewMatchesOracle(t *testing.T) {
	if err := checkFlat(core.Fig1Tree()); err != nil {
		t.Errorf("Figure 2: %v", err)
	}
	for name, sh := range shapes {
		for seed := int64(1); seed <= 25; seed++ {
			tree, _ := oracle.RandomCCTShape(seed, 40*int(seed), sh)
			if err := checkFlat(tree); err != nil {
				t.Errorf("%s, seed %d: %v", name, seed, err)
				break
			}
		}
	}
}

// TestFlatExclusiveRuleProperty checks the Flat View's exclusive rule per
// row kind (DESIGN.md §4.4, stated in oracle.Flat) over random self- and
// mutually recursive trees, and that the statement rows conserve the CCT's
// total.
func TestFlatExclusiveRuleProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		tree := oracle.RandomRecursiveTree(400, seed)
		v := core.BuildFlatView(tree)
		if err := oracle.Flat(tree).Check(v.Roots, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var stmts float64
		for _, lm := range v.Roots {
			core.Walk(lm, func(n *core.Node) bool {
				if n.Kind == core.KindStmt {
					stmts += n.Excl.Get(0)
				}
				return true
			})
		}
		if total := tree.Root.Incl.Get(0); stmts != total {
			t.Fatalf("seed %d: statement rows sum to %v, the CCT's total is %v", seed, stmts, total)
		}
	}
}

// TestFlatViewConcurrentBuilds builds the view from 8 goroutines over one
// shared tree (run under -race): the builder keeps its scratch to itself.
func TestFlatViewConcurrentBuilds(t *testing.T) {
	tree, _ := oracle.RandomCCTShape(11, 2000, oracle.CCTShape{Cols: 3})
	want := oracle.Flat(tree)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = want.Check(core.BuildFlatView(tree).Roots, 0)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestFlatViewFramelessScopes: a loop, inlined or statement scope that no
// frame encloses — the v3 reader accepts such a tree — maps under the home
// chain of a frame that names nothing, so all three views render and no cost
// is dropped.
func TestFlatViewFramelessScopes(t *testing.T) {
	stmt := core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 3}
	loop := core.Key{Kind: core.KindLoop, File: core.Sym("a.c"), Line: 2}
	main := core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("a.c"), Line: 1}
	for _, tc := range []struct {
		name  string
		paths [][]core.Key // the statement ending path i costs i+1
		// The <unknown> procedure row's inclusive cost and the module's.
		unknown, module float64
	}{
		{"loop and statement under the root", [][]core.Key{{loop, stmt}}, 1, 1},
		{"statement under the root", [][]core.Key{{stmt}}, 1, 1},
		{"beside, around and under real frames", [][]core.Key{{main, stmt}, {loop, stmt}, {loop, main, stmt}, {stmt}, {main, loop, stmt}}, 9, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metric.NewRegistry()
			if _, err := reg.AddRaw("cost", "samples", 1); err != nil {
				t.Fatal(err)
			}
			tree := core.NewTree("frameless", reg)
			for i, p := range tc.paths {
				tree.AddPath(p...).Base.Add(0, float64(i+1))
			}
			tree.ComputeMetrics()
			if err := checkCallers(tree); err != nil {
				t.Errorf("callers view: %v", err)
			}
			if err := checkFlat(tree); err != nil {
				t.Errorf("flat view: %v", err)
			}

			fv := core.BuildFlatView(tree)
			if len(fv.Roots) != 1 {
				t.Fatalf("modules %v, want one (no frame names a module)", core.Labels(fv.Roots))
			}
			if got := fv.Roots[0].Incl.Get(0); got != tc.module || got != tree.Total(0) {
				t.Errorf("module inclusive = %v, want %v (the tree's total %v)", got, tc.module, tree.Total(0))
			}
			var unknown *core.Node
			var flatStmts, cctStmts float64
			core.Walk(fv.Roots[0], func(n *core.Node) bool {
				if n.Kind == core.KindProc && n.Name == 0 {
					unknown = n
				}
				if n.Kind == core.KindStmt {
					flatStmts += n.Excl.Get(0)
				}
				return true
			})
			core.Walk(tree.Root, func(n *core.Node) bool {
				if n.Kind == core.KindStmt {
					cctStmts += n.Excl.Get(0)
				}
				return true
			})
			if flatStmts != cctStmts {
				t.Errorf("flat statement rows sum to %v, the CCT's statements to %v", flatStmts, cctStmts)
			}
			if unknown == nil || !unknown.NoSource || !unknown.Parent.NoSource || unknown.Label() != "<unknown>" || unknown.Parent.Label() != "<unknown file>" {
				t.Fatalf("no <unknown file>/<unknown> home without source in %v", core.Labels(fv.Roots[0].Children))
			}
			if got := unknown.Incl.Get(0); got != tc.unknown {
				t.Errorf("<unknown> inclusive = %v, want %v", got, tc.unknown)
			}
		})
	}
}

// TestCallersViewMatchesOracle checks every row of the expanded Callers
// View on Figure 2's tree, on random trees with one to three entry frames
// and costs of either sign, and on deep random recursion.
func TestCallersViewMatchesOracle(t *testing.T) {
	if err := checkCallers(core.Fig1Tree()); err != nil {
		t.Errorf("Figure 2: %v", err)
	}
	for seed := int64(1); seed <= 30; seed++ {
		tree, _ := oracle.RandomCCTShape(seed, 40*int(seed), oracle.CCTShape{Entries: 1 + int(seed%3), Cols: 2, Negative: true})
		if err := checkCallers(tree); err != nil {
			t.Errorf("random tree, seed %d: %v", seed, err)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		if err := checkCallers(oracle.RandomRecursiveTree(20000, seed)); err != nil {
			t.Errorf("random recursion, seed %d: %v", seed, err)
		}
	}
}

// addFormulas registers non-linear formulas over a tree's two raw columns,
// the last over the two before it.
func addFormulas(t *testing.T, tree *core.Tree) {
	t.Helper()
	for _, f := range [][2]string{
		{"ratio", "$1 / $0"},
		{"mix", "sqrt($0*$1) - $0^2/($1 + 1)"},
		{"chain", "$2*$3 + max($2, 1)"},
	} {
		if _, err := tree.Reg.AddDerived(f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentBuildCallersView builds and expands views of one shared
// finished tree from 16 goroutines, each checked against the oracle. Run
// under -race: it checks that concurrent builds only read the tree, and
// that each expansion evaluates the registry's formulas on its own rows.
func TestConcurrentBuildCallersView(t *testing.T) {
	tree := oracle.RandomRecursiveTree(4000, 7)
	addFormulas(t, tree)
	want := oracle.Callers(tree)
	errs := make([]error, 16)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := core.BuildCallersView(tree)
			if errs[g] = v.ExpandAll(); errs[g] == nil {
				errs[g] = want.Check(v.Roots, 0)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestViewRowsEvaluateFormulasProperty: on generated trees with recursion,
// loops, inlined code and costs of either sign, and non-linear formulas
// over the raw columns and over each other, every row of a complete Flat
// View, of a lazy one before and after Complete and of a Callers View
// before and after ExpandAll is what the oracle gives, derived cells
// included.
func TestViewRowsEvaluateFormulasProperty(t *testing.T) {
	trees := map[string]func(seed int64) *core.Tree{
		"recursive": func(seed int64) *core.Tree { return oracle.RandomRecursiveTree(1500, seed) },
		"shape": func(seed int64) *core.Tree {
			tree, _ := oracle.RandomCCTShape(seed, 300, oracle.CCTShape{Entries: 2, Cols: 2, Negative: true})
			return tree
		},
	}
	for name, build := range trees {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				tree := build(seed)
				addFormulas(t, tree)
				flat, callers := oracle.Flat(tree), oracle.Callers(tree)
				check := func(view string, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s view: %v", view, err)
					}
				}
				check("flat", flat.Check(core.BuildFlatView(tree).Roots, 0))
				lazy := core.BuildFlatViewLazy(tree)
				check("lazy flat", flat.Check(lazy.Roots, 3))
				lazy.Complete()
				check("completed flat", flat.Check(lazy.Roots, 0))
				cv := core.BuildCallersView(tree)
				check("callers", callers.Check(cv.Roots, 1))
				if err := cv.ExpandAll(); err != nil {
					t.Fatal(err)
				}
				check("expanded callers", callers.Check(cv.Roots, 0))
			})
		}
	}
}

// TestFlatViewMatchesOracleOnWorkloads checks the Flat View of what the
// measurement pipeline produces.
func TestFlatViewMatchesOracleOnWorkloads(t *testing.T) {
	onMergedWorkloads(t, func(t *testing.T, tree *core.Tree) {
		if err := checkFlat(tree); err != nil {
			t.Error(err)
		}
	})
}

// TestCallersViewMatchesOracleOnWorkloads checks the expanded Callers View
// of what the measurement pipeline produces.
func TestCallersViewMatchesOracleOnWorkloads(t *testing.T) {
	onMergedWorkloads(t, func(t *testing.T, tree *core.Tree) {
		if err := checkCallers(tree); err != nil {
			t.Error(err)
		}
	})
}

// onMergedWorkloads runs check on the three case-study workloads, sampled
// and merged at 1, 7 and 64 ranks, with hpcprof's summary columns (which
// the presented planes hold and the Base plane does not).
func onMergedWorkloads(t *testing.T, check func(t *testing.T, tree *core.Tree)) {
	for _, spec := range []workloads.Spec{workloads.S3D(), workloads.MOAB(), workloads.PFLOTRAN()} {
		im, err := lower.Lower(spec.Program, spec.LowerOpts)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := structfile.Recover(im)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/%d", spec.Name, ranks), func(t *testing.T) {
				profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params, Events: sampler.DefaultEvents(spec.Period)})
				if err != nil {
					t.Fatal(err)
				}
				res, err := merge.Profiles(doc, profs)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range res.Tree.Reg.Columns() {
					if d.Kind == metric.Raw && ranks > 1 {
						if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
							t.Fatal(err)
						}
					}
				}
				check(t, res.Tree)
			})
		}
	}
}
