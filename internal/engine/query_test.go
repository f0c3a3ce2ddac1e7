package engine

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// sampleWorkload lowers a workload, recovers its structure, samples it at
// the given ranks and merges the profiles.
func sampleWorkload(tb testing.TB, spec workloads.Spec, ranks int) (*structfile.Doc, []*profile.Profile, *merge.Result) {
	tb.Helper()
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		tb.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		tb.Fatal(err)
	}
	return doc, profs, res
}

// mergeWorkload is sampleWorkload's merged profiles.
func mergeWorkload(tb testing.TB, spec workloads.Spec, ranks int) *merge.Result {
	_, _, res := sampleWorkload(tb, spec, ranks)
	return res
}

// mergedFixture builds a merged multi-rank experiment with summary columns
// beside the raw ones.
func mergedFixture(t testing.TB) *expdb.Experiment {
	t.Helper()
	res := mergeWorkload(t, workloads.Toy(), 3)
	cyc := res.Tree.Reg.ByName("CYCLES")
	if cyc == nil {
		t.Fatal("no CYCLES column")
	}
	if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
		t.Fatal(err)
	}
	return expdb.FromMerge(res)
}

// TestSortOrdersRepeatAndSeeDerived: rendering twice lists the same rows in
// the same order, and sorting by a derived column added afterwards orders
// the rows by its values.
func TestSortOrdersRepeatAndSeeDerived(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "expand 0", "ls", "ls", "derived neg=0-$0", "sort neg")
}

// TestHotPathRepeatsAndFollowsThreshold: a hot path asked again from the
// top is the same path, and a threshold change gives the path the rules
// give at that threshold.
func TestHotPathRepeatsAndFollowsThreshold(t *testing.T) {
	checkScript(t, core.Fig1Tree(), "hot cost", "view flat", "view cc", "hot cost", "view flat", "view cc", "threshold 0.99", "hot cost")
}

// TestReplReadsNoSectionAgain: opening a mapped snapshot checksums every
// column section once, and a REPL script over all three views — column
// selection, sorts, expansion, hot paths, a derived column and its
// statistics, flattening — reads no section again.
func TestReplReadsNoSectionAgain(t *testing.T) {
	path, _ := v3FixtureFile(t)
	sn := mappedSnapshot(t, path)
	defer sn.Close()
	columns := 0
	for _, sp := range sn.SectionSpans() {
		if sp.Kind == "column" {
			columns++
		}
	}
	open := sn.mdb.SectionReads()
	if open["column"] != columns {
		t.Fatalf("open checksummed %d column sections, the file has %d", open["column"], columns)
	}
	s := NewSession(sn)
	defer s.Close()
	for _, line := range []string{
		"cols CYCLES", "ls", "expandall", "sort CYCLES", "hot CYCLES", "cols all",
		"derived f=$0*2", "sort f", "stats f", "view callers", "expandall", "hot CYCLES",
		"view flat", "flatten", "expandall", "hot CYCLES", "view cc", "ls",
	} {
		if _, err := Exec(s, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if got := sn.mdb.SectionReads(); !reflect.DeepEqual(got, open) {
		t.Fatalf("the script read sections %v, open had read %v", got, open)
	}
}
