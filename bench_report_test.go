// Benchmarks for the pprof bridge and the unattended report builder.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/expdb"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/pprofio"
	"repro/internal/report"
	"repro/internal/source"
)

// pprofBytes exports the merged pflotran experiment as a gzipped pprof
// profile — the import benchmark's fixture.
func pprofBytes(b *testing.B) []byte {
	doc, profs := mustMPIProfiles(b, "pflotran", 16)
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprofio.Export(expdb.FromMerge(res), &buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkImportPprof measures the full foreign-profile ingestion path:
// gunzip, proto decode, validation, and CCT construction via the
// format-neutral source boundary.
func BenchmarkImportPprof(b *testing.B) {
	raw := pprofBytes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im, err := pprofio.Import(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := source.BuildTree(im); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReport measures one unattended analysis pass — hot paths,
// waste/efficiency, load imbalance, baseline regressions — plus both
// renderings, over the merged pflotran experiment with summary columns.
func BenchmarkReport(b *testing.B) {
	build := func(ranks int) *expdb.Experiment {
		doc, profs := mustMPIProfiles(b, "pflotran", ranks)
		res, err := merge.Profiles(doc, profs)
		if err != nil {
			b.Fatal(err)
		}
		cyc := res.Tree.Reg.ByName("CYCLES")
		if cyc == nil {
			b.Fatal("no CYCLES column")
		}
		if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
			b.Fatal(err)
		}
		return expdb.FromMerge(res)
	}
	exp, base := build(16), build(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := report.Build(exp, report.Options{Baseline: base})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.JSON(); err != nil {
			b.Fatal(err)
		}
		if len(r.Markdown()) == 0 {
			b.Fatal("empty markdown")
		}
	}
}
