package merge_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/sampler"
	"repro/internal/structfile"
)

// TestRootHoldsProgramTotals merges three ranks over two entry frames:
// ranks 0 and 2 enter main (300 and 100 cycles), rank 1 enters aux (200).
// The per-rank program totals are 300, 200 and 100, so the program's max
// is 300 while the entry frames' maxima add up to 500. The root's summary
// cells and the report's totals must be the per-rank values, whether
// Merge combines shards or not.
func TestRootHoldsProgramTotals(t *testing.T) {
	p := prog.NewBuilder("entries").File("e.c").
		Proc("aux", 10, prog.W(11, 100)).
		Proc("main", 1, prog.W(2, 100), prog.C(3, "aux")).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpi.Run(im, mpi.Config{NRanks: 1, Events: sampler.DefaultEvents(10)})
	if err != nil {
		t.Fatal(err)
	}
	base := run[0]
	mainPC := base.Root.Samples()[0].PC
	auxPC := base.Root.Children()[0].Samples()[0].PC
	rank := func(r int, pc, cycles uint64) *profile.Profile {
		q := profile.NewProfile(base.Program, r, 0, base.Metrics)
		q.Fingerprint = base.Fingerprint
		q.Record(nil, pc, 0, cycles)
		return q
	}
	profs := []*profile.Profile{rank(0, mainPC, 300), rank(1, auxPC, 200), rank(2, mainPC, 100)}

	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(jobs))
			res, err := merge.Profiles(doc, profs)
			if err != nil {
				t.Fatal(err)
			}
			tree := res.Tree
			if len(tree.Root.Children) != 2 {
				t.Fatalf("%d entry frames, want 2", len(tree.Root.Children))
			}
			raw := base.Metrics[0].Name
			src := tree.Reg.ByName(raw).ID
			if err := res.AddSummaries(src, metric.OpMean, metric.OpMax); err != nil {
				t.Fatal(err)
			}
			mean := tree.Reg.ByName(raw + " (mean)").ID
			max := tree.Reg.ByName(raw + " (max)").ID
			if got := tree.Total(max); got != 300 {
				t.Errorf("root max = %v, want 300 (the largest per-rank total)", got)
			}
			if got, want := tree.Total(mean), tree.Total(src)/float64(res.NRanks); got != want {
				t.Errorf("root mean = %v, want %v", got, want)
			}
			if st := res.Stats(tree.Root, src); st.N != 3 || st.Min != 100 {
				t.Errorf("root statistics n=%d min=%v, want 3 ranks, min 100", st.N, st.Min)
			}

			r, err := report.Build(expdb.FromMerge(res), report.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Waste) != 1 {
				t.Fatalf("%d waste analyses, want 1; notes %q", len(r.Waste), r.Notes)
			}
			wm := r.Waste[0]
			if wm.TotalMean != 200 || wm.TotalMax != 300 || wm.TotalWaste != 3*(300-200) || wm.Efficiency != 200.0/300 {
				t.Errorf("report totals mean=%v max=%v waste=%v efficiency=%v, want 200, 300, 300, %v",
					wm.TotalMean, wm.TotalMax, wm.TotalWaste, wm.Efficiency, 200.0/300)
			}
		})
	}
}
