// Benchmarks for the differential profiling engine: the structural union
// of two large CCTs and the steady-state comparison kernels. Baseline
// numbers live in BENCH_diff.json; the kernels' zero-allocation steady
// state is pinned by TestDiffKernelAllocs.
package repro

import (
	"sync"
	"testing"

	"repro/internal/diff"
	"repro/internal/expdb"
)

// diffBenchPair lazily builds two ~500k-scope synthetic experiments with
// different seeds — their union approaches a million scopes, the paper's
// large-database regime — at rank counts that auto-select weak scaling,
// so the loss kernel runs too.
var (
	diffBenchOnce sync.Once
	diffBenchA    *expdb.Experiment
	diffBenchB    *expdb.Experiment
)

func diffBenchPair() (*expdb.Experiment, *expdb.Experiment) {
	diffBenchOnce.Do(func() {
		mk := func(seed int64, ranks int) *expdb.Experiment {
			tr := syntheticCCT(500_000, seed)
			tr.ComputeMetrics()
			e := expdb.New(tr)
			e.NRanks = ranks
			return e
		}
		diffBenchA = mk(1, 4)
		diffBenchB = mk(2, 16)
	})
	return diffBenchA, diffBenchB
}

// BenchmarkDiffUnion measures the whole differential pipeline per
// iteration: structural union of the two trees, per-input column fill,
// metric recomputation and the comparison kernels (D-SCALE-1).
func BenchmarkDiffUnion(b *testing.B) {
	ea, eb := diffBenchPair()
	b.ReportAllocs()
	b.ResetTimer()
	var scopes int
	for i := 0; i < b.N; i++ {
		res, err := diff.Diff(diff.Config{},
			diff.Input{Label: "A", Exp: ea}, diff.Input{Label: "B", Exp: eb})
		if err != nil {
			b.Fatal(err)
		}
		scopes = res.Tree.NumNodes()
	}
	b.ReportMetric(float64(scopes), "scopes")
}

// recomputeAll marks every comparison column stale and reads every
// comparison column-plane again.
func recomputeAll(res *diff.Result) {
	res.Tree.MetricStore().MarkStale()
	readDerived(res.Tree)
}

// BenchmarkDiffKernels measures the steady-state delta/ratio/loss
// evaluation over the built union — every comparison column-plane
// evaluated again after the store changed (D-SCALE-2). Allocates nothing.
func BenchmarkDiffKernels(b *testing.B) {
	ea, eb := diffBenchPair()
	res, err := diff.Diff(diff.Config{},
		diff.Input{Label: "A", Exp: ea}, diff.Input{Label: "B", Exp: eb})
	if err != nil {
		b.Fatal(err)
	}
	recomputeAll(res) // the first read allocates the evaluated slabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recomputeAll(res)
	}
}

// TestDiffKernelAllocs pins the kernels' steady state at zero allocations
// per evaluation of every comparison column — the contract behind
// BenchmarkDiffKernels' allocs/op column in BENCH_diff.json.
func TestDiffKernelAllocs(t *testing.T) {
	ea, eb := diffBenchPair()
	res, err := diff.Diff(diff.Config{},
		diff.Input{Label: "A", Exp: ea}, diff.Input{Label: "B", Exp: eb})
	if err != nil {
		t.Fatal(err)
	}
	recomputeAll(res) // the first read allocates every evaluated slab
	if allocs := testing.AllocsPerRun(5, func() { recomputeAll(res) }); allocs != 0 {
		t.Fatalf("evaluating every comparison column again allocates %v objects per run in steady state, want 0", allocs)
	}
}
