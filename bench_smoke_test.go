package repro

import (
	"flag"
	"testing"
)

// TestBenchSmoke executes every root benchmark body once (N=1, via
// -test.benchtime=1x) so a benchmark that rots — a renamed fixture, a
// changed API, a b.Fatal path — fails ordinary `go test` instead of lying
// dormant until someone runs -bench. Baseline numbers for the merge benches
// live in BENCH_merge.json; for the core-representation benches, in
// BENCH_core.json; for the differential-profiling benches, in
// BENCH_diff.json.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is not short")
	}
	prev := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", prev)

	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"Fig2Views", BenchmarkFig2Views},
		{"Fig3HotPath", BenchmarkFig3HotPath},
		{"Fig3Pipeline", BenchmarkFig3Pipeline},
		{"Fig4CallersView", BenchmarkFig4CallersView},
		{"Fig5FlatView", BenchmarkFig5FlatView},
		{"Fig6DerivedMetrics", BenchmarkFig6DerivedMetrics},
		{"Fig7ImbalanceAnalysis", BenchmarkFig7ImbalanceAnalysis},
		{"SamplingOverhead", BenchmarkSamplingOverhead},
		{"CCTConstructionSize", BenchmarkCCTConstructionSize},
		{"MetricComputationSize", BenchmarkMetricComputationSize},
		{"CallersViewSize", BenchmarkCallersViewSize},
		{"FlatViewSize", BenchmarkFlatViewSize},
		{"HotPathSize", BenchmarkHotPathSize},
		{"LazyVsEagerCallers", BenchmarkLazyVsEagerCallers},
		{"ExposedVsNaive", BenchmarkExposedVsNaive},
		{"ParallelMerge", BenchmarkParallelMerge},
		{"MergeRanks", BenchmarkMergeRanks},
		{"ProfileCodec", BenchmarkProfileCodec},
		{"SamplerRecord", BenchmarkSamplerRecord},
		{"DBEncodeXML", BenchmarkDBEncodeXML},
		{"DBEncodeBinary", BenchmarkDBEncodeBinary},
		{"DBDecodeXML", BenchmarkDBDecodeXML},
		{"DBDecodeBinary", BenchmarkDBDecodeBinary},
		{"RenderViews", BenchmarkRenderViews},
		{"RenderHTMLReport", BenchmarkRenderHTMLReport},
		{"SessionVisibleRows", BenchmarkSessionVisibleRows},
		{"ImageFingerprint", BenchmarkImageFingerprint},
		{"FormulaEval", BenchmarkFormulaEval},
		{"BuildCCT", BenchmarkBuildCCT},
		{"ReadBinary", BenchmarkReadBinary},
		{"ChildLookup", BenchmarkChildLookup},
		{"DerivedEval", BenchmarkDerivedEval},
		{"SortTree", BenchmarkSortTree},
		{"HotPath", BenchmarkHotPath},
		{"ComputeMetrics", BenchmarkComputeMetrics},
		{"MappedOpen", BenchmarkMappedOpen},
		{"LazyOpenSynthetic", BenchmarkLazyOpenSynthetic},
		{"ColdFirstQueryMapped", BenchmarkColdFirstQueryMapped},
		{"ColdFirstQueryLazy", BenchmarkColdFirstQueryLazy},
		{"ConcurrentSessions", BenchmarkConcurrentSessions},
		{"RenderRows", BenchmarkRenderRows},
		{"ExpandAllRender", BenchmarkExpandAllRender},
		{"CatalogSessions", BenchmarkCatalogSessions},
		{"DiffUnion", BenchmarkDiffUnion},
		{"DiffKernels", BenchmarkDiffKernels},
		{"TraceView", BenchmarkTraceView},
		{"TraceCapture", BenchmarkTraceCapture},
		{"ImportPprof", BenchmarkImportPprof},
		{"Report", BenchmarkReport},
	}
	for _, bm := range benches {
		bm := bm
		t.Run(bm.name, func(t *testing.T) {
			// Sub-benchmark failures (b.Run) don't surface in the
			// BenchmarkResult, only in the parent's failed flag.
			failed := false
			r := testing.Benchmark(func(b *testing.B) {
				bm.fn(b)
				if b.Failed() {
					failed = true
				}
			})
			if r.N == 0 || failed {
				t.Fatalf("benchmark %s failed (see log above)", bm.name)
			}
		})
	}
}
