package correlate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

// pipeline runs a program through lower -> recover -> sample -> correlate.
func pipeline(t *testing.T, p *prog.Program, opt lower.Options, period uint64, cfg sim.Config) (*isa.Image, *structfile.Doc, *core.Tree) {
	t.Helper()
	im, err := lower.Lower(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(p.Name, 0, 0, []sampler.EventConfig{{Event: sim.EvCycles, Period: period}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = s
	vm, err := sim.New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	tree, err := Correlate(doc, s.Profile())
	if err != nil {
		t.Fatal(err)
	}
	return im, doc, tree
}

func TestCorrelateSimpleCallChain(t *testing.T) {
	p := prog.NewBuilder("chain").
		Module("chain.exe").
		File("a.c").
		Proc("leaf", 10, prog.L(11, 100, prog.W(12, 10))).
		Proc("mid", 20, prog.C(21, "leaf")).
		Proc("main", 1, prog.C(2, "mid")).
		Entry("main").MustBuild()
	_, _, tree := pipeline(t, p, lower.Options{}, 50, sim.Config{})

	main := tree.FindFirst("main")
	if main == nil || main.Kind != core.KindFrame {
		t.Fatal("main frame missing")
	}
	if main.Mod.String() != "chain.exe" {
		t.Fatalf("main module = %q", main.Mod)
	}
	mid := tree.FindPath("main", "mid")
	if mid == nil {
		t.Fatalf("main/mid missing")
	}
	if mid.CallLine != 2 || mid.CallFile.String() != "a.c" {
		t.Fatalf("mid call site = %s:%d, want a.c:2", mid.CallFile, mid.CallLine)
	}
	leaf := tree.FindPath("main", "mid", "leaf")
	if leaf == nil {
		t.Fatal("main/mid/leaf missing")
	}
	// leaf's samples are inside its loop at line 11.
	lp := tree.FindPath("main", "mid", "leaf", "loop at a.c: 11")
	if lp == nil {
		t.Fatal("loop scope missing inside leaf")
	}
	st := tree.FindPath("main", "mid", "leaf", "loop at a.c: 11", "a.c: 12")
	if st == nil {
		t.Fatal("statement scope missing inside loop")
	}
	// Essentially all cycles are inclusive at every level of the chain.
	total := tree.Total(0)
	if total < 900 {
		t.Fatalf("total = %g, want ~1000", total)
	}
	for _, n := range []*core.Node{main, mid, leaf} {
		if n.Incl.Get(0) != total {
			t.Fatalf("%s inclusive = %g, want %g", n.Name, n.Incl.Get(0), total)
		}
	}
	if main.Excl.Get(0) != 0 {
		t.Fatalf("main exclusive = %g, want 0", main.Excl.Get(0))
	}
}

func TestCorrelateCallSiteInsideLoop(t *testing.T) {
	// A call nested in a loop must show the loop between the frames
	// (Section III-D.2: "the call chain presented includes both dynamic
	// context (procedure calls) and the loop nests surrounding these
	// procedure calls").
	p := prog.NewBuilder("loopcall").
		File("a.c").
		Proc("work", 10, prog.W(11, 20)).
		Proc("main", 1, prog.L(2, 50, prog.C(3, "work"))).
		Entry("main").MustBuild()
	_, _, tree := pipeline(t, p, lower.Options{}, 10, sim.Config{})
	fr := tree.FindPath("main", "loop at a.c: 2", "work")
	if fr == nil {
		t.Fatal("work frame not nested under main's loop")
	}
	if fr.CallLine != 3 {
		t.Fatalf("work call line = %d, want 3", fr.CallLine)
	}
}

func TestCorrelateInlinedScopes(t *testing.T) {
	p := prog.NewBuilder("inl").
		File("core.cc").
		InlineProc("compare", 20, prog.Wc(21, prog.Cost{Cycles: 4, L1Miss: 1, Instr: 4})).
		InlineProc("find", 10, prog.L(11, 8, prog.C(12, "compare"))).
		Proc("get_coords", 1, prog.L(2, 64, prog.C(3, "find"))).
		Entry("get_coords").MustBuild()
	_, _, tree := pipeline(t, p, lower.Options{Inline: true}, 16, sim.Config{})

	// Figure 5's shape: proc > loop > inlined find > inlined loop >
	// inlined compare > statement.
	n := tree.FindPath("get_coords", "loop at core.cc: 2", "inlined find",
		"loop at core.cc: 11", "inlined compare", "core.cc: 21")
	if n == nil {
		var got []string
		core.Walk(tree.Root, func(x *core.Node) bool {
			got = append(got, strings.Repeat(" ", len(x.Path()))+x.Label())
			return true
		})
		t.Fatalf("inlined hierarchy missing; tree:\n%s", strings.Join(got, "\n"))
	}
	if n.Incl.Get(0) == 0 {
		t.Fatal("no cost attributed through the inlined hierarchy")
	}
}

func TestCorrelateRecursion(t *testing.T) {
	p := prog.NewBuilder("rec").
		File("a.c").
		Proc("g", 1,
			prog.W(2, 100),
			prog.IfDepth(3, 3, prog.C(3, "g"))).
		Proc("main", 10, prog.C(11, "g")).
		Entry("main").MustBuild()
	_, _, tree := pipeline(t, p, lower.Options{}, 10, sim.Config{})
	// Three nested instances of g.
	g1 := tree.FindPath("main", "g")
	g2 := tree.FindPath("main", "g", "g")
	g3 := tree.FindPath("main", "g", "g", "g")
	if g1 == nil || g2 == nil || g3 == nil {
		t.Fatal("recursive chain not separated by instance")
	}
	if tree.FindPath("main", "g", "g", "g", "g") != nil {
		t.Fatal("recursion depth wrong")
	}
	if !(g1.Incl.Get(0) > g2.Incl.Get(0) && g2.Incl.Get(0) > g3.Incl.Get(0)) {
		t.Fatalf("inclusive not decreasing along recursion: %g %g %g",
			g1.Incl.Get(0), g2.Incl.Get(0), g3.Incl.Get(0))
	}
	// Callers view on a real recursive profile behaves (no
	// double-count): root g <= program total.
	cv := core.BuildCallersView(tree)
	cv.ExpandAll()
	for _, r := range cv.Roots {
		if r.Name.String() == "g" && r.Incl.Get(0) > tree.Total(0) {
			t.Fatalf("g root %g exceeds total %g", r.Incl.Get(0), tree.Total(0))
		}
	}
}

func TestCorrelateMultipleMetrics(t *testing.T) {
	p := prog.NewBuilder("mm").
		File("a.c").
		Proc("main", 1,
			prog.L(2, 100, prog.Wc(3, prog.Cost{Cycles: 10, FLOPs: 5, L1Miss: 2, Instr: 10}))).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New("mm", 0, 0, []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 100},
		{Event: sim.EvL1Miss, Period: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := sim.New(im, sim.Config{Observer: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	tree, err := Correlate(doc, s.Profile())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Reg.Len() != 2 {
		t.Fatalf("columns = %d, want 2", tree.Reg.Len())
	}
	if tree.Reg.ByName("CYCLES") == nil || tree.Reg.ByName("L1_DCM") == nil {
		t.Fatal("metric columns missing")
	}
	if tree.Total(0) == 0 || tree.Total(1) == 0 {
		t.Fatalf("totals = %g, %g", tree.Total(0), tree.Total(1))
	}
}

func TestIntoAccumulatesAcrossProfiles(t *testing.T) {
	p := prog.NewBuilder("acc").
		File("a.c").
		Proc("main", 1, prog.L(2, 100, prog.W(3, 10))).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(rank int) *profile.Profile {
		s, err := sampler.New("acc", rank, 0, []sampler.EventConfig{{Event: sim.EvCycles, Period: 10}})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sim.New(im, sim.Config{Observer: s})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Profile()
	}
	tree := core.NewTree("acc", nil)
	for rank := 0; rank < 3; rank++ {
		if _, err := Into(tree, doc, runOnce(rank)); err != nil {
			t.Fatal(err)
		}
	}
	tree.ComputeMetrics()
	if got := tree.Total(0); got != 3000 {
		t.Fatalf("accumulated total = %g, want 3000", got)
	}
	if tree.Reg.Len() != 1 {
		t.Fatalf("columns duplicated: %d", tree.Reg.Len())
	}
}

func TestCorrelateRejectsUncoveredPC(t *testing.T) {
	// A profile referencing addresses outside the document must fail
	// loudly, not attribute nonsense.
	doc := &structfile.Doc{Program: "x", Root: &structfile.Scope{Kind: structfile.KindRoot}}
	prof := profile.NewProfile("x", 0, 0, []profile.MetricInfo{{Name: "CYCLES", Unit: "c", Period: 1}})
	prof.Record(nil, 0xdead, 0, 1)
	if _, err := Correlate(doc, prof); err == nil {
		t.Fatal("uncovered PC accepted")
	}
}

func TestCorrelateEmptyProfile(t *testing.T) {
	doc := &structfile.Doc{Program: "x", Root: &structfile.Scope{Kind: structfile.KindRoot}}
	prof := profile.NewProfile("x", 0, 0, []profile.MetricInfo{{Name: "CYCLES", Unit: "c", Period: 1}})
	tree, err := Correlate(doc, prof)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 0 {
		t.Fatal("empty profile produced scopes")
	}
}

func TestCorrelateNoSourceProc(t *testing.T) {
	p := prog.NewBuilder("ns").
		File("a.c").
		Proc("main", 1, prog.C(2, "memset")).
		RuntimeProc("memset", prog.W(1, 100)).
		Entry("main").MustBuild()
	_, _, tree := pipeline(t, p, lower.Options{}, 10, sim.Config{})
	ms := tree.FindPath("main", "memset")
	if ms == nil {
		t.Fatal("memset frame missing")
	}
	if !ms.NoSource {
		t.Fatal("memset should be NoSource (rendered plain, not a hyperlink)")
	}
}

func TestCorrelateRejectsMismatchedBuild(t *testing.T) {
	// Profiles measured from one build must not correlate against a
	// different build's structure document: the fingerprints disagree
	// even though the PCs would still resolve.
	build := func(extra uint64) (*structfile.Doc, *profile.Profile) {
		p := prog.NewBuilder("fp").
			File("a.c").
			Proc("main", 1, prog.W(2, 100+extra)).
			Entry("main").MustBuild()
		im, err := lower.Lower(p, lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := structfile.Recover(im)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sampler.New("fp", 0, 0, []sampler.EventConfig{{Event: sim.EvCycles, Period: 10}})
		if err != nil {
			t.Fatal(err)
		}
		vm, err := sim.New(im, sim.Config{Observer: s})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return doc, s.Profile()
	}
	docA, profA := build(0)
	docB, profB := build(1) // same layout, different cost table

	if profA.Fingerprint == 0 || docA.Fingerprint == 0 {
		t.Fatal("fingerprints not stamped")
	}
	if profA.Fingerprint == profB.Fingerprint {
		t.Fatal("different builds share a fingerprint")
	}
	// Matching pair correlates.
	if _, err := Correlate(docA, profA); err != nil {
		t.Fatal(err)
	}
	// Cross pair is rejected.
	if _, err := Correlate(docB, profA); err == nil {
		t.Fatal("mismatched build accepted")
	}
	if _, err := Correlate(docA, profB); err == nil {
		t.Fatal("mismatched build accepted (other direction)")
	}
	// Zero fingerprints (hand-built inputs) stay permissive.
	docA.Fingerprint = 0
	if _, err := Correlate(docA, profB); err != nil {
		t.Fatalf("unknown fingerprint should be permissive: %v", err)
	}
}

// A structure document whose statement has no enclosing procedure used to
// crash correlation on a nil Proc; it is an error now, from the reader or,
// for a document built in memory, from the walk.
func TestCorrelateStatementWithoutProcedure(t *testing.T) {
	const src = `<HPCToolkitStructure n="x"><LM n="a.out"><F n="a.c"><S l="3" v="0x10-0x20"/></F></LM></HPCToolkitStructure>`
	if _, err := structfile.ReadXML(strings.NewReader(src)); err == nil {
		t.Fatal("ReadXML accepted a statement outside any procedure")
	}
	stmt := &structfile.Scope{Kind: structfile.KindStmt, Line: 3, Ranges: []structfile.Range{{Lo: 0x10, Hi: 0x20}}}
	file := &structfile.Scope{Kind: structfile.KindFile, Name: "a.c", Children: []*structfile.Scope{stmt}}
	doc := &structfile.Doc{Program: "x", Root: &structfile.Scope{Kind: structfile.KindRoot, Children: []*structfile.Scope{file}}}
	stmt.Parent, file.Parent = file, doc.Root
	prof := profile.NewProfile("x", 0, 0, []profile.MetricInfo{{Name: "CYCLES", Unit: "c", Period: 1}})
	prof.Record(nil, 0x14, 0, 1)
	if _, err := Correlate(doc, prof); err == nil || !strings.Contains(err.Error(), "not covered") {
		t.Fatalf("err = %v, want an uncovered-PC error", err)
	}
}
