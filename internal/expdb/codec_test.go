package expdb

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
)

// codecFormats are the four readers' writers: every test below runs each
// tree through all of them and reads it back with Read.
var codecFormats = []struct {
	name  string
	write func(*Experiment, io.Writer) error
}{
	{"v1", (*Experiment).WriteBinaryV1},
	{"v2", (*Experiment).WriteBinary},
	{"v3", (*Experiment).WriteBinaryV3},
	{"xml", (*Experiment).WriteXML},
}

func encode(tb testing.TB, e *Experiment, write func(*Experiment, io.Writer) error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := write(e, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// siblingLists builds a tree with one frame per list under the root and the
// list's keys as that frame's children, appended as they are, so twins
// reach the writers.
func siblingLists(tb testing.TB, lists ...[]core.Key) *Experiment {
	tb.Helper()
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		tb.Fatal(err)
	}
	tree := core.NewTree("p", reg)
	for i, keys := range lists {
		parent := tree.Root.AppendChild(core.Key{Kind: core.KindFrame, Name: core.Sym(fmt.Sprintf("p%d", i)), File: core.Sym("p.c")})
		for _, k := range keys {
			parent.AppendChild(k).Base.Add(0, 1)
		}
	}
	tree.ComputeMetrics()
	return New(tree)
}

// stmts returns n distinct statement keys, from line first on.
func stmts(n, first int) []core.Key {
	keys := make([]core.Key, n)
	for i := range keys {
		keys[i] = core.Key{Kind: core.KindStmt, File: core.Sym("s.c"), Line: first + i}
	}
	return keys
}

// TestSiblingTwinsRejected: a list of n scopes, one of them the twin of
// another, is refused in every format — with the twin first or last, and
// on both sides of the eight-scope switch from pairwise compares to the
// table. Without the twin the same list reads back.
func TestSiblingTwinsRejected(t *testing.T) {
	for _, n := range []int{2, 8, 9, 64, 4096} {
		for _, last := range []bool{false, true} {
			keys := stmts(n, 1)
			ok := siblingLists(t, stmts(3, 1), keys)
			if last {
				keys[n-1] = keys[(n-1)/2]
			} else {
				keys[0] = keys[n/2]
			}
			dup := siblingLists(t, stmts(3, 1), keys)
			for _, f := range codecFormats {
				name := fmt.Sprintf("n=%d/last=%v/%s", n, last, f.name)
				if _, err := Read(bytes.NewReader(encode(t, ok, f.write))); err != nil {
					t.Errorf("%s: distinct siblings refused: %v", name, err)
				}
				if _, err := Read(bytes.NewReader(encode(t, dup, f.write))); err == nil || !strings.Contains(err.Error(), "duplicate sibling") {
					t.Errorf("%s: error %v, want a duplicate-sibling error", name, err)
				}
			}
		}
	}
}

// TestSiblingsDifferingInOneField: keys equal but for Kind, Name, File,
// Line or ID are distinct siblings, in a short list and in a wide one.
func TestSiblingsDifferingInOneField(t *testing.T) {
	variants := func(base core.Key) []core.Key {
		out := []core.Key{base}
		for i := range 5 {
			k := base
			switch i {
			case 0:
				k.Kind = core.KindLoop
			case 1:
				k.Name = core.Sym("g")
			case 2:
				k.File = core.Sym("g.c")
			case 3:
				k.Line++
			case 4:
				k.ID++
			}
			out = append(out, k)
		}
		return out
	}
	frame := func(line int) core.Key {
		return core.Key{Kind: core.KindFrame, Name: core.Sym("f"), File: core.Sym("f.c"), Line: line, ID: 7}
	}
	var wide []core.Key
	for i := range 8 {
		wide = append(wide, variants(frame(10*i))...)
	}
	e := siblingLists(t, variants(frame(1)), wide)
	for _, f := range codecFormats {
		got, err := Read(bytes.NewReader(encode(t, e, f.write)))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		equalExperiments(t, e, got)
	}
}

// TestSiblingTableStaleStamps: consecutive wide lists under different
// parents share keys, the second wider, then narrower, than the first.
// Slots the first list left behind must not count as the second's.
func TestSiblingTableStaleStamps(t *testing.T) {
	e := siblingLists(t, stmts(100, 1), stmts(300, 1), stmts(50, 1), stmts(50, 26))
	for _, f := range codecFormats {
		got, err := Read(bytes.NewReader(encode(t, e, f.write)))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		equalExperiments(t, e, got)
	}
}

// multiByteTree gives every header field that can need more than one
// varint byte a value that does: IDs past 2^35, lines and call lines past
// 127, and more than 128 strings so that names, files, call files and
// modules refer past index 127. Some scopes have only one wide field, so
// the record's slow path starts at each position.
func multiByteTree(tb testing.TB) *Experiment {
	tb.Helper()
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		tb.Fatal(err)
	}
	tree := core.NewTree("p", reg)
	top := tree.Root.AppendChild(core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("main.c")})
	for i := range 200 {
		k := core.Key{Kind: core.KindFrame, Name: core.Sym(fmt.Sprintf("n%03d", i)), File: core.Sym(fmt.Sprintf("f%03d.c", i)), Line: 1000 + i, ID: 1<<35 + uint64(i)}
		n := top.AppendChild(k)
		n.CallLine, n.CallFile, n.Mod, n.NoSource = 300+i, core.Sym(fmt.Sprintf("c%03d.c", i)), core.Sym(fmt.Sprintf("m%03d.so", i)), i%3 == 0
		n.Base.Add(0, float64(i+1))
		// One wide field per child: ID, line, call line, module.
		for j, one := range []func(*core.Node){
			func(c *core.Node) { c.ID = 1<<40 + uint64(i) },
			func(c *core.Node) { c.Line = 128 + i },
			func(c *core.Node) { c.CallLine = 500 },
			func(c *core.Node) { c.Mod = n.Mod },
		} {
			c := n.AppendChild(core.Key{Kind: core.KindStmt, Line: j})
			one(c)
			c.Base.Add(0, 1)
		}
	}
	tree.ComputeMetrics()
	return New(tree)
}

// TestMultiByteFieldsRoundTrip: a tree whose header fields need several
// varint bytes reads back equal from v1, v2 and v3, and re-encodes to the
// same bytes.
func TestMultiByteFieldsRoundTrip(t *testing.T) {
	e := multiByteTree(t)
	for _, f := range codecFormats[:3] {
		data := encode(t, e, f.write)
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		equalExperiments(t, e, got)
		if again := encode(t, got, f.write); !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding differs (%d vs %d bytes)", f.name, len(again), len(data))
		}
	}
}

// TestSiblingCheckLinear: one wide sibling list followed by many nine-scope
// lists costs the check work linear in the scopes, in every format. A
// table cleared per list would cost the widest list's size for every later
// one.
func TestSiblingCheckLinear(t *testing.T) {
	const wide, lists = 20000, 1000
	all := [][]core.Key{stmts(wide, 1)}
	for range lists {
		all = append(all, stmts(9, 1))
	}
	e := siblingLists(t, all...)
	checked := int64(wide + 9*lists + (lists + 1)) // the lists, and the root's
	for _, f := range codecFormats {
		data := encode(t, e, f.write)
		before := sibWork.Load()
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		work := sibWork.Load() - before
		if got.Tree.NumNodes() != e.Tree.NumNodes() {
			t.Fatalf("%s: %d scopes read, want %d", f.name, got.Tree.NumNodes(), e.Tree.NumNodes())
		}
		if work < checked || work > 8*checked {
			t.Errorf("%s: sibling check did %d slot operations for %d siblings, want between 1x and 8x", f.name, work, checked)
		}
	}
}
