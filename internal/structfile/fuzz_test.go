package structfile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lower"
	"repro/internal/prog"
)

// FuzzReadXML guards the structure-file reader: arbitrary XML must parse
// or error without panicking, and anything accepted must survive a
// write/read cycle.
func FuzzReadXML(f *testing.F) {
	p := prog.NewBuilder("fz").
		File("a.c").
		Proc("main", 1, prog.L(2, 3, prog.W(3, 1))).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		f.Fatal(err)
	}
	doc, err := Recover(im)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`<HPCToolkitStructure n="x"><LM n="m"><F n="a.c"><P n="p" l="1" v="0x0-0x4"/></F></LM></HPCToolkitStructure>`)
	f.Add(`<HPCToolkitStructure`)
	f.Add(`<HPCToolkitStructure n="x"><P v="0x10-0x5"/></HPCToolkitStructure>`)
	// A statement outside any procedure: refused since it resolved with a
	// nil Proc.
	f.Add(`<HPCToolkitStructure n="x"><LM n="a.out"><F n="a.c"><S l="3" v="0x400000-0x400010"/></F></LM></HPCToolkitStructure>`)
	f.Fuzz(func(t *testing.T, src string) {
		got, err := ReadXML(strings.NewReader(src))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.WriteXML(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		// Resolution over arbitrary accepted documents must not panic, and
		// whatever resolves has a procedure and a statement.
		if res, ok := got.Resolve(0x400000); ok && (res.Proc == nil || res.Stmt == nil) {
			t.Fatalf("Resolve answered ok with %+v", res)
		}
		got.Stats()
	})
}
