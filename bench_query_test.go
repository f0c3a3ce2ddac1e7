package repro

import (
	"testing"

	"repro/internal/core"
)

// Query-path benchmarks: the interactive operations the paper's viewer
// performs on every user action — derived-metric evaluation (Section V-D),
// metric-column sorting (Section V-A), hot path analysis (Section V-C,
// Equation 3) and the Equation 1/2 metric computation itself. Baseline
// numbers live in BENCH_query.json.

// derivedEvalTree builds the ~100k-scope synthetic CCT with a chain of
// derived columns: two referencing the raw column and one referencing an
// earlier derived column, covering arithmetic, division and the function
// forms.
func derivedEvalTree(b *testing.B) *core.Tree {
	b.Helper()
	t := syntheticCCT(100_000, 5)
	for _, d := range [][2]string{
		{"fpwaste", "$0*4 - $0/2"},
		{"releff", "$1 / ($0*4 + 1)"},
		{"mix", "min($0, sqrt($0)) + max($1, 2) * abs($0 - 3)"},
	} {
		if _, err := t.Reg.AddDerived(d[0], d[1]); err != nil {
			b.Fatal(err)
		}
	}
	return t
}

func BenchmarkDerivedEval(b *testing.B) {
	t := derivedEvalTree(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := t.ApplyDerivedTree(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortTree(b *testing.B) {
	t := syntheticCCT(100_000, 7)
	// Alternate directions so every iteration reorders every sibling list
	// instead of re-sorting an already-sorted tree.
	specs := [2]core.SortSpec{
		{MetricID: 0},
		{MetricID: 0, Ascending: true},
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SortTree(t.Root, specs[i%2])
	}
}

func BenchmarkHotPath(b *testing.B) {
	t := syntheticCCT(100_000, 9)
	b.ResetTimer()
	b.ReportAllocs()
	var length int
	for i := 0; i < b.N; i++ {
		length += len(core.HotPath(t.Root, 0, core.DefaultHotPathThreshold))
	}
	if length == 0 {
		b.Fatal("empty hot path")
	}
}

func BenchmarkComputeMetrics(b *testing.B) {
	t := syntheticCCT(100_000, 11)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.ComputeMetrics()
	}
}
