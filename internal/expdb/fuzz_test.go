package expdb

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

// mergedSeed builds a genuine multi-rank merged experiment — rank-skewed
// costs, scopes absent from some ranks, mean/min/max/stddev summary
// columns — so round-trip fuzzing covers the summary-statistics override
// encoding, not just raw columns.
func mergedSeed(f *testing.F) *Experiment {
	f.Helper()
	p := prog.NewBuilder("fuzzmr").
		File("a.c").
		Proc("work", 10,
			prog.Lx(11, prog.ScaledInt{X: prog.RankInt{}, Num: 20, Den: 1, Off: 20},
				prog.W(12, 10))).
		Proc("main", 1,
			prog.C(2, "work"),
			prog.Sync(3)).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		f.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		f.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: 4, Events: []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 10},
		{Event: sim.EvIdle, Period: 10},
	}})
	if err != nil {
		f.Fatal(err)
	}
	res, err := merge.ProfilesJobs(doc, profs, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range res.Tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
			f.Fatal(err)
		}
	}
	return FromMerge(res)
}

// FuzzReadBinary guards the compact database readers, reached through Read's
// format sniff, against panics on arbitrary input; anything accepted must
// re-encode cleanly.
func FuzzReadBinary(f *testing.F) {
	e := New(core.Fig1Tree())
	var buf, bufV1 bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	if err := e.WriteBinaryV1(&bufV1); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(bufV1.Bytes())
	f.Add([]byte("CPDB1"))
	f.Add([]byte("CPDB2"))
	f.Add([]byte{})
	mutated := append([]byte(nil), good...)
	if len(mutated) > 20 {
		mutated[15] ^= 0x7f
		f.Add(mutated)
		f.Add(good[:len(good)*2/3])
	}
	// Multi-rank merged seed in both versions: summary-statistics columns
	// exercise the override records the Fig1 tree never produces, and a
	// provenance section exercises the quarantine decoding.
	ms := mergedSeed(f)
	ms.Provenance = &ingest.Report{Attempted: 4, Merged: 3, Bad: []ingest.BadRank{
		{Path: "r3.cpprof", Rank: 3, Offset: 17, Class: ingest.ClassTruncated, Message: "unexpected EOF"},
	}}
	var mbuf, mbufV1 bytes.Buffer
	if err := ms.WriteBinary(&mbuf); err != nil {
		f.Fatal(err)
	}
	if err := ms.WriteBinaryV1(&mbufV1); err != nil {
		f.Fatal(err)
	}
	merged := mbuf.Bytes()
	f.Add(merged)
	f.Add(mbufV1.Bytes())
	if len(merged) > 30 {
		f.Add(merged[:len(merged)/2])
		tweaked := append([]byte(nil), merged...)
		tweaked[len(tweaked)-7] ^= 0x55
		f.Add(tweaked)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteBinary(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

// FuzzReadXML does the same for the XML reader.
func FuzzReadXML(f *testing.F) {
	e := New(core.Fig1Tree())
	var buf bytes.Buffer
	if err := e.WriteXML(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	var mbuf bytes.Buffer
	if err := mergedSeed(f).WriteXML(&mbuf); err != nil {
		f.Fatal(err)
	}
	f.Add(mbuf.String())
	f.Add(`<Experiment n="x"><MetricTable/><CCT/></Experiment>`)
	f.Add(`<Experiment`)
	f.Add(`<Experiment n="x"><CCT><N k="frame" n="a"><V c="0" v="1"/></N></CCT></Experiment>`)
	f.Fuzz(func(t *testing.T, src string) {
		got, err := ReadXML(bytes.NewReader([]byte(src)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteXML(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}

// FuzzReadV3 guards the mappable v3 reader: the index parser must bound-
// check every offset before the slab views are built (a mapped reader that
// trusts a bad index faults the process, not just the test), and anything
// accepted must re-encode cleanly in both v3 and v2.
func FuzzReadV3(f *testing.F) {
	e := New(core.Fig1Tree())
	var buf bytes.Buffer
	if err := e.WriteBinaryV3(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte("CPDB3"))
	f.Add([]byte("CPDB3\x00\x00\x00"))
	f.Add([]byte{})
	if len(good) > 40 {
		f.Add(good[:len(good)*2/3]) // truncated mid-section
		f.Add(good[:len(good)-32])  // trailer sheared off
		idxFlip := append([]byte(nil), good...)
		idxFlip[len(idxFlip)-40] ^= 0x7f // inside the index
		f.Add(idxFlip)
		trFlip := append([]byte(nil), good...)
		trFlip[len(trFlip)-28] ^= 0x01 // count field of the trailer
		f.Add(trFlip)
	}
	ms := mergedSeed(f)
	ms.Provenance = &ingest.Report{Attempted: 4, Merged: 3, Bad: []ingest.BadRank{
		{Path: "r3.cpprof", Rank: 3, Offset: 17, Class: ingest.ClassTruncated, Message: "unexpected EOF"},
	}}
	var mbuf bytes.Buffer
	if err := ms.WriteBinaryV3(&mbuf); err != nil {
		f.Fatal(err)
	}
	merged := mbuf.Bytes()
	f.Add(merged)
	if len(merged) > 64 {
		f.Add(merged[:len(merged)/2])
		colFlip := append([]byte(nil), merged...)
		colFlip[len(colFlip)/2] ^= 0x55 // likely inside a column slab
		f.Add(colFlip)
	}
	for _, bad := range v3BadTrees(f) { // malformed trees behind valid checksums
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteBinaryV3(&out); err != nil {
			t.Fatalf("v3 re-encode failed: %v", err)
		}
		if err := got.WriteBinary(&out); err != nil {
			t.Fatalf("v2 re-encode failed: %v", err)
		}
	})
}
