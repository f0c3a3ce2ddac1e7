package expdb

import (
	"bytes"
	"io"
	"runtime"
	"strings"
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
	old := runtime.GOMAXPROCS(2) // a two-shard merge
	res, err := merge.Profiles(doc, profs)
	runtime.GOMAXPROCS(old)
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

// FuzzReadBinary guards the compact database readers, v1, v2 and v3 alike,
// reached through Read's format sniff: no input may panic them (a v3
// reader that trusts a bad index faults the process, not just the test),
// and whatever they accept is one normalisation from a fixed point of every
// binary writer — for x = Read(data), W(Read(W(x))) == W(x) byte for byte,
// so the shared decoder and the shared tree walk agree on every format.
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
	// A Base value whose column the registry does not declare, in both
	// versions: the readers must refuse it.
	undeclared := New(core.Fig1Tree())
	undeclared.Tree.Root.Children[0].Base.Add(undeclared.Tree.Reg.Len()+2, 1)
	for _, write := range []func(*Experiment, io.Writer) error{(*Experiment).WriteBinary, (*Experiment).WriteBinaryV1} {
		var b bytes.Buffer
		if err := write(undeclared, &b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
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

	// v3: the index parser must bound-check every offset before the slab
	// views are built.
	var buf3 bytes.Buffer
	if err := e.WriteBinaryV3(&buf3); err != nil {
		f.Fatal(err)
	}
	good3 := buf3.Bytes()
	f.Add(good3)
	f.Add([]byte("CPDB3"))
	f.Add([]byte("CPDB3\x00\x00\x00"))
	f.Add([]byte{})
	if len(good3) > 40 {
		f.Add(good3[:len(good3)*2/3]) // truncated mid-section
		f.Add(good3[:len(good3)-32])  // trailer sheared off
		idxFlip := append([]byte(nil), good3...)
		idxFlip[len(idxFlip)-40] ^= 0x7f // inside the index
		f.Add(idxFlip)
		trFlip := append([]byte(nil), good3...)
		trFlip[len(trFlip)-28] ^= 0x01 // count field of the trailer
		f.Add(trFlip)
	}
	var mbuf3 bytes.Buffer
	if err := ms.WriteBinaryV3(&mbuf3); err != nil {
		f.Fatal(err)
	}
	merged3 := mbuf3.Bytes()
	f.Add(merged3)
	if len(merged3) > 64 {
		f.Add(merged3[:len(merged3)/2])
		colFlip := append([]byte(nil), merged3...)
		colFlip[len(colFlip)/2] ^= 0x55 // likely inside a column slab
		f.Add(colFlip)
	}
	for _, bad := range v3BadTrees(f) { // malformed trees behind valid checksums
		f.Add(bad)
	}

	// Two same-key siblings, which every reader refuses, in a short list
	// and in a wide one; a tree whose header fields need several varint
	// bytes; and a v1 file whose root overrides ride in the optional
	// trailer.
	dup := dupSiblings(f)
	wideKeys := stmts(64, 1)
	wideKeys[63] = wideKeys[31]
	wideDup := siblingLists(f, stmts(3, 1), wideKeys)
	rt := New(core.Fig1Tree())
	d, err := rt.Tree.Reg.AddComputed("scaling loss", "cycles")
	if err != nil {
		f.Fatal(err)
	}
	rt.Tree.Root.Incl.Set(d.ID, 2.5)
	rt.Tree.Root.Excl.Set(d.ID, -1.25)
	for _, w := range []struct {
		e     *Experiment
		write func(*Experiment, io.Writer) error
	}{
		{dup, (*Experiment).WriteBinaryV1},
		{dup, (*Experiment).WriteBinary},
		{wideDup, (*Experiment).WriteBinaryV3},
		{multiByteTree(f), (*Experiment).WriteBinaryV3},
		{rt, (*Experiment).WriteBinaryV1},
	} {
		var b bytes.Buffer
		if err := w.write(w.e, &b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}

	writers := []struct {
		name  string
		write func(*Experiment, io.Writer) error
	}{
		{"v1", (*Experiment).WriteBinaryV1},
		{"v2", (*Experiment).WriteBinary},
		{"v3", (*Experiment).WriteBinaryV3},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, w := range writers {
			var once, twice bytes.Buffer
			if err := w.write(x, &once); err != nil {
				t.Fatalf("%s: encode: %v", w.name, err)
			}
			y, err := Read(bytes.NewReader(once.Bytes()))
			if err != nil {
				t.Fatalf("%s: its own output does not read back: %v", w.name, err)
			}
			if err := w.write(y, &twice); err != nil {
				t.Fatalf("%s: re-encode: %v", w.name, err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("%s: W(Read(W(x))) differs from W(x) (%d vs %d bytes)", w.name, twice.Len(), once.Len())
			}
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
	// A value of a column far past the registry, and an override on a raw
	// column: both are refused before anything is allocated for them.
	f.Add(strings.Replace(buf.String(), `<V c="0"`, `<V c="30000000"`, 1))
	f.Add(strings.Replace(buf.String(), `<V c="0" v="1"></V>`, `<SV c="0" v="1"></SV>`, 1))
	// A second Experiment inside a CCT leaves the values that follow in the
	// first one's tree.
	f.Add(`<Experiment n="x"><CCT><Experiment/><V c="0" v="1"/></CCT></Experiment>`)
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
