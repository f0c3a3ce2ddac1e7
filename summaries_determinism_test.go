package repro

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/expdb"
	"repro/internal/merge"
	"repro/internal/metric"
)

// summariesDBBytes runs the hpcprof -summaries pipeline — parallel merge
// at GOMAXPROCS jobs (the merge's worker count), then mean/min/max/stddev
// summary columns on every raw metric — and serializes the experiment,
// returning the exact database bytes.
func summariesDBBytes(t *testing.T, name string, ranks, jobs int, write func(*expdb.Experiment, *bytes.Buffer) error) []byte {
	t.Helper()
	doc, profs := mustMPIProfiles(t, name, ranks)
	old := runtime.GOMAXPROCS(jobs)
	res, err := merge.Profiles(doc, profs)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := write(expdb.FromMerge(res), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSummariesByteDeterministic locks hpcprof -summaries to byte-identical
// databases regardless of the merge's worker count, at 64 ranks where shard merge orders
// genuinely differ. This holds because per-rank statistics keep exact
// moments (N, Σx, Σx², min, max): merging shard statistics is pure
// addition of integer-valued sums, which is associative bitwise at
// workload scale, where Welford's running-mean combine was not. The check
// covers every serialized bit — including the stddev overrides in v2 and
// the baked stddev column slabs in v3 — not just rendered text.
func TestSummariesByteDeterministic(t *testing.T) {
	formats := []struct {
		name  string
		write func(*expdb.Experiment, *bytes.Buffer) error
	}{
		{"v2", func(e *expdb.Experiment, b *bytes.Buffer) error { return e.WriteBinary(b) }},
		{"v3", func(e *expdb.Experiment, b *bytes.Buffer) error { return e.WriteBinaryV3(b) }},
	}
	for _, f := range formats {
		for _, jobs := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/jobs=%d", f.name, jobs), func(t *testing.T) {
				sequential := summariesDBBytes(t, "pflotran", 64, 1, f.write)
				parallel := summariesDBBytes(t, "pflotran", 64, jobs, f.write)
				if !bytes.Equal(sequential, parallel) {
					i := 0
					for i < len(sequential) && i < len(parallel) && sequential[i] == parallel[i] {
						i++
					}
					t.Fatalf("GOMAXPROCS 1 and %d databases differ (first at byte %d of %d/%d)",
						jobs, i, len(sequential), len(parallel))
				}
			})
		}
	}
}
