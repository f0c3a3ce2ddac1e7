package expdb

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

// fixture builds an experiment with raw, derived and summary columns.
func fixture(t *testing.T) *Experiment {
	t.Helper()
	p := prog.NewBuilder("fix").
		File("a.c").
		Proc("kernel", 10,
			prog.L(11, 50, prog.Wc(12, prog.Cost{Cycles: 20, FLOPs: 10, L1Miss: 2, Instr: 20}))).
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
	profs, err := mpi.Run(im, mpi.Config{NRanks: 3, Events: []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 20},
		{Event: sim.EvFLOPs, Period: 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	cyc := res.Tree.Reg.ByName("CYCLES").ID
	if err := res.AddSummaries(cyc, metric.OpMean, metric.OpMax); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Tree.Reg.AddDerived("fpwaste", "$0*4 - $1"); err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.ApplyDerivedTree(); err != nil {
		t.Fatal(err)
	}
	return FromMerge(res)
}

// equalExperiments compares two experiments structurally: registry, tree
// shape and all metric vectors.
func equalExperiments(t *testing.T, a, b *Experiment) {
	t.Helper()
	if a.Program != b.Program || a.NRanks != b.NRanks {
		t.Fatalf("identity changed: %q/%d vs %q/%d", a.Program, a.NRanks, b.Program, b.NRanks)
	}
	if a.Tree.Reg.Len() != b.Tree.Reg.Len() {
		t.Fatalf("column count changed: %d vs %d", a.Tree.Reg.Len(), b.Tree.Reg.Len())
	}
	for i, da := range a.Tree.Reg.Columns() {
		db := b.Tree.Reg.ByID(i)
		if da.Name != db.Name || da.Kind != db.Kind || da.Period != db.Period ||
			da.Formula != db.Formula || da.Op != db.Op {
			t.Fatalf("column %d changed: %+v vs %+v", i, da, db)
		}
	}
	var compare func(x, y *core.Node)
	compare = func(x, y *core.Node) {
		if x.Key != y.Key || x.NoSource != y.NoSource || x.Mod != y.Mod ||
			x.CallLine != y.CallLine || x.CallFile != y.CallFile {
			t.Fatalf("node identity changed: %+v vs %+v", x.Key, y.Key)
		}
		for _, pair := range []struct{ va, vb *metric.View }{
			{&x.Base, &y.Base}, {&x.Excl, &y.Excl}, {&x.Incl, &y.Incl},
		} {
			if pair.va.Len() != pair.vb.Len() {
				t.Fatalf("vector length changed at %s: %s vs %s", x.Label(), pair.va.String(), pair.vb.String())
			}
			pair.va.Range(func(id int, v float64) {
				if pair.vb.Get(id) != v {
					t.Fatalf("value changed at %s col %d: %g vs %g", x.Label(), id, v, pair.vb.Get(id))
				}
			})
		}
		if len(x.Children) != len(y.Children) {
			t.Fatalf("children changed at %s", x.Label())
		}
		for i := range x.Children {
			compare(x.Children[i], y.Children[i])
		}
	}
	compare(a.Tree.Root, b.Tree.Root)
}

func TestXMLRoundTrip(t *testing.T) {
	e := fixture(t)
	var buf bytes.Buffer
	if err := e.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXML(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadXML: %v", err)
	}
	equalExperiments(t, e, got)
}

func TestBinaryRoundTrip(t *testing.T) {
	e := fixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	equalExperiments(t, e, got)
}

func TestBinarySmallerThanXML(t *testing.T) {
	e := fixture(t)
	var xmlBuf, binBuf bytes.Buffer
	if err := e.WriteXML(&xmlBuf); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBinary(&binBuf); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() >= xmlBuf.Len() {
		t.Fatalf("binary (%d B) not smaller than XML (%d B)", binBuf.Len(), xmlBuf.Len())
	}
	t.Logf("xml=%dB binary=%dB ratio=%.2fx", xmlBuf.Len(), binBuf.Len(),
		float64(xmlBuf.Len())/float64(binBuf.Len()))
}

func TestFig1TreeRoundTrips(t *testing.T) {
	e := New(core.Fig1Tree())
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	equalExperiments(t, e, got)
	// The reloaded tree still reproduces Figure 2a's numbers.
	g1 := got.Tree.FindPath("m", "f", "g")
	if g1 == nil || g1.Incl.Get(0) != 6 || g1.Excl.Get(0) != 1 {
		t.Fatal("reloaded tree lost Figure 2a semantics")
	}
}

func TestReadXMLErrors(t *testing.T) {
	cases := []string{
		``,
		`<Wrong/>`,
		`<Experiment n="x"><CCT><N/></CCT></Experiment>`,                        // node without kind
		`<Experiment n="x"><CCT><N k="bogus"/></CCT></Experiment>`,              // bad kind
		`<Experiment n="x" ranks="zz"></Experiment>`,                            // bad ranks
		`<Experiment n="x"><CCT><N k="frame" l="zz"/></CCT></Experiment>`,       // bad line
		`<Experiment n="x"><CCT><N k="frame"><V c="0"/></N></CCT></Experiment>`, // incomplete value
		`<Metric n="y"/>`, // metric outside table
	}
	for _, src := range cases {
		if _, err := ReadXML(strings.NewReader(src)); err == nil {
			t.Errorf("ReadXML(%q) succeeded", src)
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Read(strings.NewReader("XXXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
	e := fixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Fatal("truncated database accepted")
	}
}

func TestComputedColumnRoundTrips(t *testing.T) {
	// Computed columns (e.g. scaling loss) carry externally filled
	// values in both flavors; they must survive both formats verbatim
	// and must NOT be clobbered by derived re-evaluation at load.
	tree := core.Fig1Tree()
	d, err := tree.Reg.AddComputed("scaling loss", "cycles")
	if err != nil {
		t.Fatal(err)
	}
	h := tree.FindPath("m", "f", "g", "g", "h")
	h.Incl.Set(d.ID, 2.5)
	h.Excl.Set(d.ID, -1.25)
	e := New(tree)

	for name, codec := range map[string]struct {
		write func(*Experiment) ([]byte, error)
		read  func([]byte) (*Experiment, error)
	}{
		"xml": {
			func(e *Experiment) ([]byte, error) {
				var b bytes.Buffer
				err := e.WriteXML(&b)
				return b.Bytes(), err
			},
			func(data []byte) (*Experiment, error) { return ReadXML(bytes.NewReader(data)) },
		},
		"binary": {
			func(e *Experiment) ([]byte, error) {
				var b bytes.Buffer
				err := e.WriteBinary(&b)
				return b.Bytes(), err
			},
			func(data []byte) (*Experiment, error) { return Read(bytes.NewReader(data)) },
		},
	} {
		data, err := codec.write(e)
		if err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		got, err := codec.read(data)
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		gd := got.Tree.Reg.ByName("scaling loss")
		if gd == nil || gd.Kind != metric.Computed {
			t.Fatalf("%s: computed column lost", name)
		}
		gh := got.Tree.FindPath("m", "f", "g", "g", "h")
		if gh.Incl.Get(gd.ID) != 2.5 || gh.Excl.Get(gd.ID) != -1.25 {
			t.Fatalf("%s: computed values = (%g, %g), want (2.5, -1.25)",
				name, gh.Incl.Get(gd.ID), gh.Excl.Get(gd.ID))
		}
	}
}

func TestMetricsRecomputedOnLoad(t *testing.T) {
	// The database stores only Base values (plus summary overrides);
	// presented metrics must come back from Equations 1 and 2 at load.
	e := New(core.Fig1Tree())
	var buf bytes.Buffer
	if err := e.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	// The XML must not contain a node with both inclusive and exclusive
	// materialized; spot check: h's exclusive 4 is derived, so "4" only
	// appears as base at the statement.
	got, err := ReadXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := got.Tree.FindPath("m", "f", "g", "g", "h")
	if h == nil {
		t.Fatal("h missing after reload")
	}
	if h.Incl.Get(0) != 4 || h.Excl.Get(0) != 4 {
		t.Fatalf("h = (%g,%g) after reload, want (4,4)",
			h.Incl.Get(0), h.Excl.Get(0))
	}
	if h.Base.Len() != 0 {
		t.Fatal("h should carry no base values")
	}
}

func TestAllSummaryOpsRoundTrip(t *testing.T) {
	tree := core.Fig1Tree()
	for _, op := range []metric.SummaryOp{metric.OpSum, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev} {
		if _, err := tree.Reg.AddSummary(0, op); err != nil {
			t.Fatal(err)
		}
	}
	e := New(tree)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cost (sum)", "cost (mean)", "cost (min)", "cost (max)", "cost (stddev)"} {
		d := got.Tree.Reg.ByName(want)
		if d == nil || d.Kind != metric.Summary {
			t.Fatalf("summary column %q lost", want)
		}
	}
}

func TestKindAndOpNameErrors(t *testing.T) {
	if _, err := kindFromName("martian"); err == nil {
		t.Fatal("bad kind name accepted")
	}
	if _, err := opFromName("martian"); err == nil {
		t.Fatal("bad op name accepted")
	}
	if kindName(metric.Kind(200)) == "" {
		t.Fatal("unknown kind has empty name")
	}
}

func TestRebuildRegistryErrors(t *testing.T) {
	if _, err := rebuildRegistry([]metricDesc{{Name: "x", Kind: "martian"}}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := rebuildRegistry([]metricDesc{{Name: "x", Kind: "derived", Formula: "(("}}); err == nil {
		t.Fatal("bad formula accepted")
	}
	if _, err := rebuildRegistry([]metricDesc{{Name: "x", Kind: "summary", Op: "mean", Source: 5}}); err == nil {
		t.Fatal("dangling summary source accepted")
	}
}
