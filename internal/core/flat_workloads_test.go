package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// TestFlatViewMatchesOracleOnWorkloads runs the differential test of the
// sweep on what the measurement pipeline produces: the three case-study
// workloads, sampled and merged at 1, 7 and 64 ranks, with hpcprof's summary
// columns (which the presented planes hold and the Base plane does not).
func TestFlatViewMatchesOracleOnWorkloads(t *testing.T) {
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
				if err := core.SameFlatView(core.BuildFlatView(res.Tree), core.OracleBuildFlatView(res.Tree)); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
