package structfile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/prog"
)

func toyImage(t *testing.T, opt lower.Options) *isa.Image {
	t.Helper()
	p := prog.NewBuilder("toy").
		Module("toy.exe").
		File("file1.c").
		Proc("f", 1, prog.C(2, "g")).
		Proc("m", 6, prog.C(7, "f"), prog.C(8, "g")).
		File("file2.c").
		Proc("g", 2,
			prog.IfDepth(3, 2, prog.C(3, "g")),
			prog.IfP(4, 0.5, prog.C(4, "h")),
			prog.W(5, 1)).
		Proc("h", 7,
			prog.L(8, 10,
				prog.L(9, 10, prog.W(9, 1)))).
		Entry("m").
		MustBuild()
	im, err := lower.Lower(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestRecoverToy(t *testing.T) {
	doc, err := Recover(toyImage(t, lower.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	st := doc.Stats()
	if st.LMs != 1 || st.Files != 2 || st.Procs != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Loops != 2 {
		t.Fatalf("loops = %d, want 2 (h's nest)", st.Loops)
	}
	h := doc.FindProc("h")
	if h == nil {
		t.Fatal("proc h not found")
	}
	// h contains l1 (line 8) which contains l2 (line 9).
	var l1 *Scope
	for _, c := range h.Children {
		if c.Kind == KindLoop && c.Line == 8 {
			l1 = c
		}
	}
	if l1 == nil {
		t.Fatalf("loop at line 8 not under h: %+v", h.Children)
	}
	var l2 *Scope
	for _, c := range l1.Children {
		if c.Kind == KindLoop && c.Line == 9 {
			l2 = c
		}
	}
	if l2 == nil {
		t.Fatal("loop at line 9 not nested in loop at line 8")
	}
	// l2 contains the statement at line 9.
	foundStmt := false
	for _, c := range l2.Children {
		if c.Kind == KindStmt && c.Line == 9 {
			foundStmt = true
		}
	}
	if !foundStmt {
		t.Fatal("statement at line 9 not inside inner loop")
	}
}

func TestRecoverRangesNestProperly(t *testing.T) {
	doc, err := Recover(toyImage(t, lower.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	// Every child scope's ranges must be covered by its parent's ranges
	// (below the file level, which carries no ranges).
	var walk func(s *Scope)
	var total int
	walk = func(s *Scope) {
		for _, c := range s.Children {
			if s.Kind != KindRoot && s.Kind != KindLM && s.Kind != KindFile {
				for _, r := range c.Ranges {
					for a := r.Lo; a < r.Hi; a += isa.InstrBytes {
						total++
						if !s.ContainsAddr(a) {
							t.Fatalf("%v scope does not cover child %v addr 0x%x", s.Kind, c.Kind, a)
						}
					}
				}
			}
			walk(c)
		}
	}
	walk(doc.Root)
	if total == 0 {
		t.Fatal("no nested ranges checked")
	}
}

func TestResolveEveryInstruction(t *testing.T) {
	im := toyImage(t, lower.Options{})
	doc, err := Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	for i := range im.Code {
		addr := im.Addr(int32(i))
		res, ok := doc.Resolve(addr)
		if !ok {
			t.Fatalf("instruction %d (%s) unresolved", i, im.Disasm(int32(i)))
		}
		pi := im.ProcAt(int32(i))
		if res.Proc.Name != im.Procs[pi].Name {
			t.Fatalf("instr %d resolved to proc %q, want %q", i, res.Proc.Name, im.Procs[pi].Name)
		}
		if res.Stmt == nil || res.LM == nil || res.File == nil {
			t.Fatalf("instr %d: incomplete resolution %+v", i, res)
		}
		if res.Stmt.Line != int(im.Code[i].Line) {
			t.Fatalf("instr %d: line %d, want %d", i, res.Stmt.Line, im.Code[i].Line)
		}
	}
	if _, ok := doc.Resolve(0x1); ok {
		t.Fatal("bogus address resolved")
	}
	if _, ok := doc.Resolve(im.Addr(int32(len(im.Code)))); ok {
		t.Fatal("past-the-end address resolved")
	}
}

func TestResolveLoopChain(t *testing.T) {
	im := toyImage(t, lower.Options{})
	doc, err := Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	// The work instruction at file2.c:9 sits in a two-deep loop nest.
	for i, in := range im.Code {
		if in.Op == isa.OpWork && in.Line == 9 {
			res, ok := doc.Resolve(im.Addr(int32(i)))
			if !ok {
				t.Fatal("unresolved")
			}
			if len(res.Chain) != 2 {
				t.Fatalf("chain length = %d, want 2", len(res.Chain))
			}
			if res.Chain[0].Kind != KindLoop || res.Chain[0].Line != 8 ||
				res.Chain[1].Kind != KindLoop || res.Chain[1].Line != 9 {
				t.Fatalf("chain = [%v:%d %v:%d]", res.Chain[0].Kind, res.Chain[0].Line, res.Chain[1].Kind, res.Chain[1].Line)
			}
		}
	}
}

func TestRecoverInlining(t *testing.T) {
	p := prog.NewBuilder("inl").
		Module("mesh.exe").
		File("core.cc").
		InlineProc("compare", 20, prog.W(21, 1)).
		InlineProc("find", 10,
			prog.L(11, 4, prog.C(12, "compare"))).
		Proc("get_coords", 1,
			prog.L(2, 16, prog.C(3, "find"))).
		Entry("get_coords").
		MustBuild()
	im, err := lower.Lower(p, lower.Options{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	st := doc.Stats()
	// Two aliens inside get_coords (find, and compare within find), plus
	// one inside the standalone out-of-line copy of find (compare).
	if st.Aliens != 3 {
		t.Fatalf("aliens = %d, want 3", st.Aliens)
	}
	// Hierarchy: get_coords > loop(2) > alien(find) > loop(11) >
	// alien(compare) > stmt(21) — the Figure 5 shape.
	gc := doc.FindProc("get_coords")
	if gc == nil {
		t.Fatal("get_coords not found")
	}
	path := []struct {
		kind Kind
		name string
		line int
	}{
		{KindLoop, "", 2},
		{KindAlien, "find", 10},
		{KindLoop, "", 11},
		{KindAlien, "compare", 20},
		{KindStmt, "", 21},
	}
	cur := gc
	for step, want := range path {
		var next *Scope
		for _, c := range cur.Children {
			if c.Kind == want.kind && c.Line == want.line && (want.name == "" || c.Name == want.name) {
				next = c
				break
			}
		}
		if next == nil {
			t.Fatalf("step %d: no %v line %d under %v (children: %d)", step, want.kind, want.line, cur.Kind, len(cur.Children))
		}
		cur = next
	}
	// Alien call-line provenance.
	find := gc.Children[0] // may be stmt or loop; search instead
	_ = find
	var findAlien *Scope
	var walk func(s *Scope)
	walk = func(s *Scope) {
		if s.Kind == KindAlien && s.Name == "find" {
			findAlien = s
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(gc)
	if findAlien == nil || findAlien.CallLine != 3 {
		t.Fatalf("find alien call line wrong: %+v", findAlien)
	}
}

func TestRecoverNoSourceProc(t *testing.T) {
	p := prog.NewBuilder("rt").
		File("a.c").
		Proc("main", 1, prog.C(2, "memset")).
		RuntimeProc("memset", prog.W(1, 5)).
		Entry("main").
		MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	ms := doc.FindProc("memset")
	if ms == nil {
		t.Fatal("memset not found")
	}
	if !ms.NoSource {
		t.Fatal("memset should be marked NoSource")
	}
	// Resolving into memset still works.
	mi := im.ProcByName("memset")
	res, ok := doc.Resolve(im.Addr(im.Procs[mi].Start))
	if !ok || res.Proc.Name != "memset" {
		t.Fatalf("resolve into memset failed: %+v ok=%v", res, ok)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	im := toyImage(t, lower.Options{})
	doc, err := Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<HPCToolkitStructure") {
		t.Fatalf("missing root element:\n%s", buf.String())
	}
	got, err := ReadXML(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadXML: %v\n%s", err, buf.String())
	}
	if got.Program != doc.Program {
		t.Fatalf("program name %q != %q", got.Program, doc.Program)
	}
	if got.Stats() != doc.Stats() {
		t.Fatalf("stats changed: %+v != %+v", got.Stats(), doc.Stats())
	}
	// Resolution must behave identically after a round trip.
	for i := range im.Code {
		addr := im.Addr(int32(i))
		a, okA := doc.Resolve(addr)
		b, okB := got.Resolve(addr)
		if okA != okB {
			t.Fatalf("resolve disagreement at 0x%x", addr)
		}
		if !okA {
			continue
		}
		if a.Proc.Name != b.Proc.Name || a.Stmt.Line != b.Stmt.Line || len(a.Chain) != len(b.Chain) {
			t.Fatalf("resolution changed at 0x%x: %v:%d vs %v:%d", addr, a.Proc.Name, a.Stmt.Line, b.Proc.Name, b.Stmt.Line)
		}
		for k := range a.Chain {
			if a.Chain[k].Kind != b.Chain[k].Kind || a.Chain[k].Line != b.Chain[k].Line {
				t.Fatalf("chain changed at 0x%x", addr)
			}
		}
	}
}

func TestXMLRoundTripWithInlining(t *testing.T) {
	im := toyImage(t, lower.Options{})
	_ = im
	p := prog.NewBuilder("inl2").
		File("a.c").
		InlineProc("k", 10, prog.L(11, 2, prog.W(12, 1))).
		Proc("main", 1, prog.C(2, "k")).
		Entry("main").
		MustBuild()
	img, err := lower.Lower(p, lower.Options{Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXML(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Aliens != 1 {
		t.Fatalf("aliens after round trip = %d, want 1", got.Stats().Aliens)
	}
	// The alien's call line survives.
	var alien *Scope
	var walk func(s *Scope)
	walk = func(s *Scope) {
		if s.Kind == KindAlien {
			alien = s
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(got.Root)
	if alien == nil || alien.CallLine != 2 || alien.Name != "k" {
		t.Fatalf("alien lost attributes: %+v", alien)
	}
}

func TestReadXMLErrors(t *testing.T) {
	cases := []string{
		``,
		`<Wrong/>`,
		`<HPCToolkitStructure n="x"><Bogus/></HPCToolkitStructure>`,
		`<HPCToolkitStructure n="x"><P l="zz"/></HPCToolkitStructure>`,
		`<HPCToolkitStructure n="x"><P v="nonsense"/></HPCToolkitStructure>`,
		`<HPCToolkitStructure n="x"><P v="0x10-0x5"/></HPCToolkitStructure>`,
	}
	for _, src := range cases {
		if _, err := ReadXML(strings.NewReader(src)); err == nil {
			t.Errorf("ReadXML(%q) succeeded, want error", src)
		}
	}
}

func TestParseRanges(t *testing.T) {
	rs, err := parseRanges("0x10-0x20 0x30-0x34")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0] != (Range{0x10, 0x20}) || rs[1] != (Range{0x30, 0x34}) {
		t.Fatalf("ranges = %+v", rs)
	}
	if formatRanges(rs) != "0x10-0x20 0x30-0x34" {
		t.Fatalf("format = %q", formatRanges(rs))
	}
}

func TestScopeContainsAddr(t *testing.T) {
	s := &Scope{Ranges: []Range{{0x10, 0x20}, {0x40, 0x44}}}
	for _, c := range []struct {
		addr uint64
		want bool
	}{
		{0x0f, false}, {0x10, true}, {0x1f, true}, {0x20, false},
		{0x3f, false}, {0x40, true}, {0x43, true}, {0x44, false},
	} {
		if got := s.ContainsAddr(c.addr); got != c.want {
			t.Errorf("ContainsAddr(0x%x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestRecoverRejectsInvalidImage(t *testing.T) {
	im := &isa.Image{EntryProc: 5}
	if _, err := Recover(im); err == nil {
		t.Fatal("invalid image accepted")
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	im := toyImage(t, lower.Options{})
	doc, err := Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Fingerprint == 0 || doc.Fingerprint != im.Fingerprint() {
		t.Fatal("fingerprint not recorded")
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadXML(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != doc.Fingerprint {
		t.Fatalf("fingerprint changed: %x vs %x", got.Fingerprint, doc.Fingerprint)
	}
	if _, err := ReadXML(strings.NewReader(`<HPCToolkitStructure n="x" fp="zz"/>`)); err == nil {
		t.Fatal("bad fingerprint attr accepted")
	}
}

// A statement is attributed to the frame of its procedure; a document that
// has one outside any <P> used to pass ReadXML and resolve with a nil Proc,
// which correlation then dereferenced.
func TestStatementNeedsProcedure(t *testing.T) {
	wrap := func(body string) string {
		return `<HPCToolkitStructure n="x"><LM n="a.out"><F n="a.c">` + body + `</F></LM></HPCToolkitStructure>`
	}
	for _, tc := range []struct {
		name, src, wantErr string
	}{
		{"bare statement", wrap(`<S l="3" v="0x10-0x20"/>`), `1:`},
		{"under a loop only", wrap(`<L l="2" v="0x10-0x20"><S l="3" v="0x10-0x20"/></L>`), `<S> outside any <P>`},
		{"after its procedure closed", wrap(`<P n="p" l="1" v="0x0-0x10"/>` + "\n" + `<S l="3" v="0x10-0x20"/>`), `2:`},
		{"directly under the root", `<HPCToolkitStructure n="x"><S l="3" v="0x10-0x20"/></HPCToolkitStructure>`, `<S> outside any <P>`},
		{"in a procedure", wrap(`<P n="p" l="1" v="0x10-0x20"><S l="3" v="0x10-0x20"/></P>`), ``},
		{"in a loop in a procedure", wrap(`<P n="p" l="1" v="0x10-0x20"><L l="2" v="0x10-0x20"><S l="3" v="0x10-0x20"/></L></P>`), ``},
	} {
		doc, err := ReadXML(strings.NewReader(tc.src))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			} else if res, ok := doc.Resolve(0x14); !ok || res.Proc == nil || res.Stmt == nil {
				t.Errorf("%s: Resolve(0x14) = %+v, %v", tc.name, res, ok)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
	}

	// A document built in memory gets no such check: its statement must
	// simply not resolve.
	stmt := &Scope{Kind: KindStmt, Line: 3, Ranges: []Range{{0x10, 0x20}}}
	file := &Scope{Kind: KindFile, Name: "a.c", Children: []*Scope{stmt}}
	doc := &Doc{Root: &Scope{Kind: KindRoot, Children: []*Scope{file}}}
	stmt.Parent, file.Parent = file, doc.Root
	if res, ok := doc.Resolve(0x14); ok {
		t.Fatalf("statement without a procedure resolved: %+v", res)
	}
}
