package pprofio

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"

	"repro/internal/core"
	"repro/internal/source"
)

// foreignProto hand-builds a small Go-shaped CPU profile: main calls work
// (call site main.go:12), plus a stack where work was inlined into main
// (one location, two lines, innermost first).
func foreignProto() *proto {
	st := newStringTable()
	p := &proto{
		sampleTypes: []valueType{
			{typ: st.id("samples"), unit: st.id("count")},
			{typ: st.id("cpu"), unit: st.id("nanoseconds")},
		},
		mappings: []mapping{{id: 1, filename: st.id("/bin/app")}},
		functions: []function{
			{id: 1, name: st.id("main.main"), filename: st.id("main.go"), startLine: 10},
			{id: 2, name: st.id("main.work"), filename: st.id("work.go"), startLine: 20},
		},
		locations: []location{
			// call site in main
			{id: 1, mappingID: 1, address: 0x1000, lines: []line{{functionID: 1, line: 12}}},
			// leaf in work
			{id: 2, mappingID: 1, address: 0x2000, lines: []line{{functionID: 2, line: 25}}},
			// work inlined into main: innermost first, caller last
			{id: 3, mappingID: 1, address: 0x3000, lines: []line{
				{functionID: 2, line: 26},
				{functionID: 1, line: 14},
			}},
		},
		samples: []sample{
			{locs: []uint64{2, 1}, values: []int64{3, 30}}, // main -> work
			{locs: []uint64{1}, values: []int64{1, 10}},    // main leaf
			{locs: []uint64{3}, values: []int64{2, 20}},    // main -> inlined work
		},
		period:     1,
		periodType: valueType{typ: st.id("cpu"), unit: st.id("nanoseconds")},
	}
	p.strings = st.list
	return p
}

func importBytes(t *testing.T, b []byte) *Profile {
	t.Helper()
	im, err := Import(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestImportForeign checks the pprof-granularity mapping: frames keyed by
// function identity, caller lines as call sites, leaf lines as statements,
// inlined bodies as ordinary frames.
func TestImportForeign(t *testing.T) {
	im := importBytes(t, foreignProto().marshal())
	if im.Program() != "app" {
		t.Fatalf("program = %q, want app (first mapping basename)", im.Program())
	}
	ms := im.Metrics()
	if len(ms) != 2 || ms[0].Name != "samples" || ms[1].Name != "cpu" ||
		ms[0].Period != 1 || ms[1].Unit != "nanoseconds" {
		t.Fatalf("metrics = %+v", ms)
	}
	tree, err := source.BuildTree(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Root.Children) != 1 {
		t.Fatalf("want one entry frame, got %d", len(tree.Root.Children))
	}
	main := tree.Root.Children[0]
	if main.Kind != core.KindFrame || main.Key.Name.String() != "main.main" ||
		main.Key.Line != 10 || main.Key.File.String() != "main.go" {
		t.Fatalf("entry frame = %v", main.Key)
	}
	if main.Mod.String() != "/bin/app" {
		t.Fatalf("entry frame module = %q", main.Mod.String())
	}
	var work, mainStmt *core.Node
	for _, c := range main.Children {
		switch c.Kind {
		case core.KindFrame:
			work = c
		case core.KindStmt:
			mainStmt = c
		}
	}
	// The called work and the work body inlined into main share one
	// function identity, so they fuse into a single frame — pprof's own
	// granularity. The first-seen call site (main.go:12) wins.
	if work == nil || work.Key.Name.String() != "main.work" {
		t.Fatalf("missing work frame under main: %+v", main.Children)
	}
	if work.CallLine != 12 || work.CallFile.String() != "main.go" {
		t.Fatalf("work call site = %s:%d, want main.go:12", work.CallFile.String(), work.CallLine)
	}
	if mainStmt == nil || mainStmt.Key.Line != 12 || mainStmt.Key.File.String() != "main.go" {
		t.Fatalf("missing main.go:12 statement under main")
	}
	// Both work leaves land as statements of the fused frame.
	stmt := map[int]*core.Node{}
	for _, c := range work.Children {
		if c.Kind == core.KindStmt {
			stmt[c.Key.Line] = c
		}
	}
	if len(stmt) != 2 || stmt[25] == nil || stmt[26] == nil {
		t.Fatalf("work children = %+v, want statements at lines 25 and 26", work.Children)
	}
	if got := stmt[25].Base.Get(0); got != 3 {
		t.Fatalf("samples at work.go:25 = %v, want 3", got)
	}
	if got := stmt[26].Base.Get(1); got != 20 {
		t.Fatalf("cpu at work.go:26 = %v, want 20", got)
	}
	// Inclusive cost rolls up to the entry frame.
	if got := main.Incl.Get(1); got != 60 {
		t.Fatalf("inclusive cpu at main = %v, want 60", got)
	}
}

// heapSink keeps test allocations live so the heap profiler records them.
var heapSink [][]byte

// writeHeapProfile allocates enough to guarantee heap samples (the
// profiler samples roughly one allocation per 512 KiB), then captures the
// process heap profile.
func writeHeapProfile(tb testing.TB) []byte {
	tb.Helper()
	heapSink = heapSink[:0]
	for i := 0; i < 64; i++ {
		heapSink = append(heapSink, make([]byte, 1<<20))
	}
	runtime.GC()
	var heap bytes.Buffer
	if err := pprof.WriteHeapProfile(&heap); err != nil {
		tb.Fatal(err)
	}
	heapSink = nil
	return heap.Bytes()
}

// TestImportReal imports a genuine Go runtime heap profile of this test
// process.
func TestImportReal(t *testing.T) {
	heap := bytes.NewBuffer(writeHeapProfile(t))
	im := importBytes(t, heap.Bytes())
	if len(im.p.samples) == 0 {
		t.Fatal("heap profile recorded no samples despite 64 MiB of live allocations")
	}
	tree, err := source.BuildTree(im)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Root.Children) == 0 {
		t.Fatal("heap profile produced an empty tree")
	}
	if len(im.Metrics()) != 4 {
		t.Fatalf("heap profile metrics = %+v, want 4 sample types", im.Metrics())
	}
	// The whole heap profile must be attributed: root inclusive equals the
	// sum of sample values for each column.
	var want [4]float64
	for i := range im.p.samples {
		for j, v := range im.p.samples[i].values {
			want[j] += float64(v)
		}
	}
	for j := range want {
		var got float64
		for _, c := range tree.Root.Children {
			got += c.Incl.Get(j)
		}
		if got != want[j] {
			t.Errorf("column %d: attributed %v, profile total %v", j, got, want[j])
		}
	}
}

// TestImportErrors checks malformed inputs fail cleanly.
func TestImportErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"garbage":        []byte("not a profile"),
		"gzip magic":     {0x1f, 0x8b},
		"truncated":      foreignProto().marshal()[:10],
		"no sample type": (&proto{strings: []string{""}}).marshal(),
	}
	for name, b := range cases {
		if _, err := Import(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: Import succeeded, want error", name)
		}
	}
}
