package expdb

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
	"repro/internal/trace"
)

// traceFixture runs a small program with trace capture on, merges it at
// GOMAXPROCS procs and returns an experiment with TraceRanks installed,
// plus the inputs that built it.
func traceFixture(t testing.TB, nranks, procs int) (*Experiment, *structfile.Doc, []*profile.Profile) {
	t.Helper()
	p := prog.NewBuilder("trfix").
		File("a.c").
		Proc("kernel", 10,
			prog.L(11, 40, prog.Wc(12, prog.Cost{Cycles: 25, FLOPs: 10, L1Miss: 2, Instr: 20}))).
		Proc("main", 1,
			prog.C(2, "kernel"),
			prog.Sync(3)).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{
		NRanks: nranks,
		Events: []sampler.EventConfig{{Event: sim.EvCycles, Period: 40}},
		Trace:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(procs)
	res, err := merge.Profiles(doc, profs)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	e := FromMerge(res)
	if err := TraceRanksFromProfiles(e, doc, profs); err != nil {
		t.Fatal(err)
	}
	return e, doc, profs
}

func TestTraceRoundTrip(t *testing.T) {
	e, _, profs := traceFixture(t, 3, 1)
	if len(e.TraceRanks) != 3 {
		t.Fatalf("TraceRanks = %d, want 3", len(e.TraceRanks))
	}

	db, err := OpenMapped(v3File(t, v3Bytes(t, e)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	tv, err := db.Trace()
	if err != nil {
		t.Fatal(err)
	}
	ranks := tv.TraceRanks()
	if len(ranks) != 3 {
		t.Fatalf("trace ranks = %v, want 3 ranks", ranks)
	}
	exp, err := db.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Notes) != 0 {
		t.Fatalf("unexpected notes: %v", exp.Notes)
	}

	for i, rank := range ranks {
		m, ok := tv.TraceMeta(rank)
		if !ok {
			t.Fatalf("no meta for rank %d", rank)
		}
		src := profs[i].Trace
		if m.Count != src.Count() || m.LastT != src.LastT() {
			t.Fatalf("rank %d meta {%d,%d}, capture {%d,%d}",
				rank, m.Count, m.LastT, src.Count(), src.LastT())
		}
		recs := tv.Records(rank)
		if uint64(len(recs)) != m.Count {
			t.Fatalf("rank %d: %d records, meta count %d", rank, len(recs), m.Count)
		}
		// Every CPID is a live structural row of this tree.
		for _, r := range recs {
			if db.NodeAt(int(r.CPID)) == nil {
				t.Fatalf("rank %d: CPID %d resolves to no node", rank, r.CPID)
			}
		}
		// Level 0 holds exactly the events the records hold.
		var got uint64
		for _, b := range tv.TraceLevel(rank, 0) {
			got += uint64(b.Samples)
		}
		if got != m.Count {
			t.Fatalf("rank %d: level 0 holds %d samples, want %d", rank, got, m.Count)
		}
	}

	// A view over the whole span renders without error and is non-empty.
	g, err := trace.View(tv, 0, 0, nil, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, c := range g.Cells {
		if !c.Empty() {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("view over full span is entirely empty")
	}

	for _, key := range []string{"trace", "pyramid", "tracemeta"} {
		if db.SectionReads()[key] == 0 {
			t.Fatalf("no %q section reads recorded: %v", key, db.SectionReads())
		}
	}
}

// TestTraceJobsDeterminism locks the database bytes — trace sections
// included — to be independent of merge parallelism.
func TestTraceJobsDeterminism(t *testing.T) {
	e1, _, _ := traceFixture(t, 4, 1)
	e8, _, _ := traceFixture(t, 4, 8)
	if !bytes.Equal(v3Bytes(t, e1), v3Bytes(t, e8)) {
		t.Fatal("v3 bytes with traces differ between merges at GOMAXPROCS 1 and 8")
	}
}

// TestTraceDamageDegrades flips bytes in each trace-related section kind
// and checks the database opens, profile views stay intact, and the
// damage is reported through Notes rather than an error.
func TestTraceDamageDegrades(t *testing.T) {
	e, _, _ := traceFixture(t, 3, 1)
	clean := v3Bytes(t, e)

	cases := []struct {
		name      string
		match     func(v3sec) bool
		wantRanks int
		wantNote  string
	}{
		{"trace", func(s v3sec) bool { return s.kind == dbSecTrace && s.col == 1 }, 2, "rank 1"},
		{"pyramid", func(s v3sec) bool { return s.kind == dbSecPyramid && s.col == 2 }, 2, "rank 2"},
		{"tracemeta", func(s v3sec) bool { return s.kind == dbSecTraceMeta }, 0, "tracemeta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := v3CorruptSection(t, clean, tc.match)
			db, err := OpenMapped(v3File(t, data))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tv, err := db.Trace()
			if err != nil {
				t.Fatalf("Trace() must degrade, got error %v", err)
			}
			if len(tv.TraceRanks()) != tc.wantRanks {
				t.Fatalf("ranks after damage = %v, want %d", tv.TraceRanks(), tc.wantRanks)
			}
			exp, err := db.Experiment()
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, n := range exp.Notes {
				if strings.Contains(n, tc.wantNote) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no note mentioning %q in %v", tc.wantNote, exp.Notes)
			}
			// Profile views are untouched: metrics still verify.
			if err := db.VerifyAll(); err != nil {
				t.Fatalf("profile sections damaged too: %v", err)
			}
			if _, err := trace.View(tv, 0, 0, nil, 16, 1); tc.wantRanks > 0 && err != nil {
				t.Fatalf("view over surviving ranks: %v", err)
			}
		})
	}
}

// TestTraceAbsentIsEmpty: a database without traces yields an empty view,
// no notes, no error.
func TestTraceAbsentIsEmpty(t *testing.T) {
	e := fixture(t)
	db, err := OpenMapped(v3File(t, v3Bytes(t, e)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tv, err := db.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.TraceRanks()) != 0 {
		t.Fatalf("ranks = %v, want none", tv.TraceRanks())
	}
	if _, err := trace.View(tv, 0, 0, nil, 16, 1); err == nil {
		t.Fatal("View over empty trace view must error")
	}
}

// TestWriteTraceSectionsValidation: the writer refuses sources that lie
// about their geometry.
func TestWriteTraceSectionsValidation(t *testing.T) {
	e, _, _ := traceFixture(t, 1, 1)
	good := e.TraceRanks[0]

	bad := []struct {
		name string
		tr   TraceRank
	}{
		{"short", TraceRank{Rank: 0, Count: good.Count + 5, LastT: good.LastT, Scan: good.Scan}},
		{"long", TraceRank{Rank: 0, Count: good.Count - 1, LastT: good.LastT, Scan: good.Scan}},
		{"lastT", TraceRank{Rank: 0, Count: good.Count, LastT: good.LastT + 7, Scan: good.Scan}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			e.TraceRanks = []TraceRank{tc.tr}
			var buf bytes.Buffer
			if err := e.WriteBinaryV3(&buf); err == nil {
				t.Fatal("WriteBinaryV3 accepted a lying trace source")
			}
		})
	}
	e.TraceRanks = []TraceRank{good, {Rank: good.Rank, Count: 1, LastT: 1, Scan: good.Scan}}
	var buf bytes.Buffer
	if err := e.WriteBinaryV3(&buf); err == nil {
		t.Fatal("WriteBinaryV3 accepted duplicate ranks")
	}
}
