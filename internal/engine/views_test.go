package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/framing"
	"repro/internal/metric"
)

// framelessTree is a tree the v3 reader accepts and no measurement produces:
// loop, inlined and statement scopes that no frame encloses, beside, around
// and under real frames.
func framelessTree(t testing.TB) *core.Tree {
	t.Helper()
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("frameless", reg)
	stmt := core.Key{Kind: core.KindStmt, File: core.Sym("a.c"), Line: 3}
	loop := core.Key{Kind: core.KindLoop, File: core.Sym("a.c"), Line: 2}
	inl := core.Key{Kind: core.KindAlien, Name: core.Sym("inl"), File: core.Sym("a.h"), Line: 9}
	main := core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("a.c"), Line: 1}
	for i, path := range [][]core.Key{{loop, stmt}, {stmt}, {main, stmt}, {loop, main, loop, stmt}, {inl, stmt}} {
		tree.AddPath(path...).Base.Add(0, float64(i+1))
	}
	tree.ComputeMetrics()
	return tree
}

func v3Of(t testing.TB, tree *core.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := expdb.New(tree).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFramelessScopesRenderInEveryView opens the frameless database the way
// hpcviewer and hpcserver do and walks it through all three views. Before
// the Flat View gave frameless scopes a home, `view flat` panicked here.
func TestFramelessScopesRenderInEveryView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frameless.db")
	if err := os.WriteFile(path, v3Of(t, framelessTree(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	sn, err := Open(path)
	if err != nil {
		t.Fatalf("the reader refuses the frameless database: %v", err)
	}
	defer sn.Release()
	s := NewSession(sn)
	defer s.Close()
	var flat string
	for _, line := range []string{"ls", "view callers", "ls", "view flat", "ls", "flatten", "expandall"} {
		resp := s.Do(Request{Line: line})
		if resp.Err != "" {
			t.Fatalf("%q: %s", line, resp.Err)
		}
		if !strings.Contains(resp.Output, "scope") {
			t.Fatalf("%q rendered no table:\n%s", line, resp.Output)
		}
		flat = resp.Output
	}
	for _, want := range []string{"<unknown>", "loop at a.c: 2", "inlined inl", "a.c: 3", "main"} {
		if !strings.Contains(flat, want) {
			t.Errorf("expanded flat view has no %q row:\n%s", want, flat)
		}
	}
}

// resealedTree returns a v3 database of two sibling frames (lines 1 and 2 of
// f.c) with its tree section edited and the section's, the index's and the
// trailer's checksums made good again, so the edit reaches the tree decoder
// and what it accepts reaches the views. The section is the root count and
// ten one-byte varints per scope — kind, name, file, line, id, call line,
// call file, module, flags, child count — so the first scope's kind is byte
// 1 and the second's line byte 14. (Index entries and the trailer are 32
// bytes each, the tree section is kind 4: expdb/v3.go.)
func resealedTree(t testing.TB, edit func(tree []byte)) []byte {
	t.Helper()
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("p", reg)
	for line := 1; line <= 2; line++ {
		tree.AddPath(core.Key{Kind: core.KindFrame, Name: core.Sym("f"), File: core.Sym("f.c"), Line: line}).Base.Add(0, float64(line))
	}
	tree.ComputeMetrics()
	data := v3Of(t, tree)
	tr := data[len(data)-32:]
	idx := data[binary.LittleEndian.Uint64(tr[0:8]) : len(data)-32]
	for en := idx; len(en) >= 32; en = en[32:] {
		if en[0] != 4 {
			continue
		}
		off, n := int64(binary.LittleEndian.Uint64(en[8:16])), int64(binary.LittleEndian.Uint64(en[16:24]))
		if n != 21 {
			t.Fatalf("tree section is %d bytes, the edits assume 21", n)
		}
		edit(data[off : off+n])
		binary.LittleEndian.PutUint32(en[24:], framing.ChecksumPadded(data[off:off+framing.AlignUp(n)]))
	}
	binary.LittleEndian.PutUint32(tr[16:], framing.Checksum(idx))
	return data
}

// viewsScript drives every view of a session; {M} is the first metric column.
var viewsScript = []string{"ls", "view callers", "expand 0", "view flat", "flatten", "expandall", "view cc", "hot {M}"}

// FuzzViews renders what the fuzzed readers accept. FuzzReadV3 and its
// siblings in expdb only re-encode an accepted database, which is how a tree
// the Flat View panicked on went unnoticed. For any bytes expdb.Read accepts,
// a session runs the script through all three views without a panic (command
// errors are fine), and — when every directly attributed and every statement
// cost is finite and non-negative, so that sums cannot cancel — the flat
// view's statement rows conserve the CCT's statement exclusives.
func FuzzViews(f *testing.F) {
	f.Add(v3Of(f, core.Fig1Tree()))
	f.Add(v3Of(f, framelessTree(f)))
	var buf bytes.Buffer
	if err := mergedFixture(f).WriteBinaryV3(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Formats without section checksums let mutations reach the tree.
	buf.Reset()
	if err := expdb.New(framelessTree(f)).WriteXML(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(resealedTree(f, func(p []byte) { p[14] = p[4] }))                    // duplicate sibling key: refused
	f.Add(resealedTree(f, func(p []byte) { p[20] = 5 }))                       // child count beyond the section: refused
	f.Add(resealedTree(f, func(p []byte) { p[1] = byte(core.KindStmt) }))      // a statement under the root
	f.Add(resealedTree(f, func(p []byte) { p[11] = byte(core.KindCallSite) })) // a view-only kind in the CCT
	f.Fuzz(func(t *testing.T, data []byte) {
		exp, err := expdb.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		sn := NewSnapshot(exp)
		defer sn.Release()
		s := NewSession(sn)
		defer s.Close()
		first := ""
		if cols := sn.Tree().Reg.Columns(); len(cols) > 0 {
			first = cols[0].Name
		}
		for _, line := range viewsScript {
			s.Do(Request{Line: strings.ReplaceAll(line, "{M}", first)})
		}

		tree := sn.Tree()
		cols := tree.Reg.Len()
		cct, flat := make([]float64, cols), make([]float64, cols)
		summable := true
		sum := func(into []float64, n *core.Node) bool {
			for c := range into {
				x, b := n.Excl.Get(c), n.Base.Get(c)
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
					summable = false
				}
				if n.Kind == core.KindStmt {
					into[c] += x
				}
			}
			return true
		}
		core.Walk(tree.Root, func(n *core.Node) bool { return sum(cct, n) })
		if !summable {
			return
		}
		for _, lm := range core.BuildFlatView(tree).Roots {
			core.Walk(lm, func(n *core.Node) bool { return sum(flat, n) })
		}
		for c := range cct {
			if d := math.Abs(flat[c] - cct[c]); d > 1e-9*math.Max(cct[c], flat[c]) {
				t.Errorf("column %d: flat statement rows sum to %v, the CCT's statements to %v", c, flat[c], cct[c])
			}
		}
	})
}
