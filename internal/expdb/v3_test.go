package expdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/ingest"
	"repro/internal/metric"
)

func v3Bytes(t *testing.T, e *Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func v3File(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "experiment.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// v3CorruptSection flips one payload byte of the first v3 section matching
// the predicate, returning a copy.
func v3CorruptSection(t *testing.T, data []byte, match func(v3sec) bool) []byte {
	t.Helper()
	secs, err := parseV3Index(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if !match(s) {
			continue
		}
		if s.length == 0 {
			t.Fatal("matched section has empty payload")
		}
		out := append([]byte(nil), data...)
		out[s.off+s.length/2] ^= 0xff
		return out
	}
	t.Fatal("no section matched")
	return nil
}

func TestBinaryV3RoundTrip(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 3, Merged: 3}
	data := v3Bytes(t, e)
	if !bytes.HasPrefix(data, []byte(dbMagicV3Full)) {
		t.Fatalf("WriteBinaryV3 magic = %q", data[:8])
	}

	// Read sniffs the magic like any other format.
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	equalExperiments(t, e, got)
}

func TestOpenMappedIsIndexOnly(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 3, Merged: 3}
	db, err := OpenMapped(v3File(t, v3Bytes(t, e)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	reads := db.SectionReads()
	if reads["index"] != 1 {
		t.Fatalf("index decoded %d times at open, want 1", reads["index"])
	}
	for _, s := range []string{"strings", "header", "metrics", "tree", "column", "provenance"} {
		if reads[s] != 0 {
			t.Fatalf("section %s touched at open: %v", s, reads)
		}
	}

	// Experiment reads every metadata, column and provenance section
	// exactly once; later calls read none of them again.
	columns := 0
	for _, sec := range db.secs {
		if sec.kind == dbSecColumn {
			columns++
		}
	}
	want := map[string]int{"index": 1, "strings": 1, "header": 1, "metrics": 1, "tree": 1, "column": columns, "provenance": 1}
	exp, err := db.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if got := db.SectionReads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Experiment read sections %v, want %v", got, want)
	}
	if _, err := db.Experiment(); err != nil {
		t.Fatal(err)
	}
	if got := db.SectionReads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a second Experiment read sections %v, want %v", got, want)
	}
	if rep := exp.Provenance; rep == nil || rep.Attempted != 3 {
		t.Fatalf("provenance report = %+v", rep)
	}
}

// TestMappedCopyOnWriteLeavesFileUntouched drives a write through a
// borrowed (mapped) column and checks the slab was copied first: the file
// bytes never change and the store stops borrowing that column.
func TestMappedCopyOnWriteLeavesFileUntouched(t *testing.T) {
	e := fixture(t)
	data := v3Bytes(t, e)
	path := v3File(t, data)
	db, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exp, err := db.Experiment()
	if err != nil {
		t.Fatal(err)
	}

	st := exp.Tree.MetricStore()
	cyc := exp.Tree.Reg.ByName("CYCLES").ID
	if !st.Borrowed(metric.PlaneIncl, cyc) {
		t.Fatal("inclusive CYCLES not adopted as a borrowed slab")
	}
	// Col hands out a writable slab: that must be the COW choke point.
	slab := st.Col(metric.PlaneIncl, cyc)
	if st.Borrowed(metric.PlaneIncl, cyc) {
		t.Fatal("writable slab still borrowed (writes would hit the mapping)")
	}
	for i := range slab {
		slab[i] = -1
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, after) {
		t.Fatal("mapped file bytes changed after a store write")
	}
	if got := db.data[0]; got != dbMagicV3Full[0] {
		t.Fatal("mapping itself was scribbled on")
	}
}

func TestMappedDamagedColumnDegrades(t *testing.T) {
	e := fixture(t)
	exp0 := e // keep names handy
	cyc := exp0.Tree.Reg.ByName("CYCLES").ID
	data := v3CorruptSection(t, v3Bytes(t, e), func(s v3sec) bool {
		return s.kind == dbSecColumn && int(s.col) == cyc && metric.Plane(s.plane) == metric.PlaneIncl
	})

	db, err := OpenMapped(v3File(t, data))
	if err != nil {
		t.Fatalf("open should survive column damage: %v", err)
	}
	defer db.Close()
	exp, err := db.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	// The note exists as soon as the experiment does.
	if len(exp.Notes) != 1 || !strings.Contains(exp.Notes[0], "CRC32C") {
		t.Fatalf("notes = %v", exp.Notes)
	}
	// The damaged plane reads zero; the untouched planes survive.
	if m := maxAbsIncl(exp, cyc); m != 0 {
		t.Fatalf("damaged inclusive plane still reads %g", m)
	}
	baseMax := 0.0
	core.Walk(exp.Tree.Root, func(n *core.Node) bool {
		if v := n.Base.Get(cyc); v > baseMax {
			baseMax = v
		}
		return true
	})
	if baseMax == 0 {
		t.Fatal("undamaged base plane lost")
	}
	// The check runs once: a later decode adds no note.
	if _, err := db.Experiment(); err != nil {
		t.Fatal(err)
	}
	if len(exp.Notes) != 1 {
		t.Fatalf("decoding again duplicated the note: %v", exp.Notes)
	}
}

func TestV3DamagedMetadataFatal(t *testing.T) {
	e := fixture(t)
	clean := v3Bytes(t, e)
	for _, kind := range []byte{dbSecStrings, dbSecHeader, dbSecMetrics, dbSecTree} {
		data := v3CorruptSection(t, clean, func(s v3sec) bool { return s.kind == kind })
		db, err := newMappedDB(data)
		if err != nil {
			t.Fatalf("open itself should stay O(index): %v", err)
		}
		if _, err := db.Experiment(); err == nil {
			t.Fatalf("corrupt %s section did not fail the metadata decode", sectionName(kind))
		} else {
			var serr *SectionError
			if !errors.As(err, &serr) {
				t.Fatalf("corrupt %s: error %v is not a SectionError", sectionName(kind), err)
			}
		}
		// Eager readers reject the database outright.
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Fatalf("eager read accepted corrupt %s section", sectionName(kind))
		}
	}
}

func TestV3DamagedProvenanceDegrades(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 3, Merged: 2, Bad: []ingest.BadRank{{Path: "rank2.cpprof", Rank: 2, Offset: -1}}}
	data := v3CorruptSection(t, v3Bytes(t, e), func(s v3sec) bool { return s.kind == dbSecProvenance })
	db, err := newMappedDB(data)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := db.Experiment()
	if err != nil {
		t.Fatalf("provenance damage must degrade: %v", err)
	}
	if exp.Provenance != nil {
		t.Fatalf("damaged provenance still decoded: %+v", exp.Provenance)
	}
	if len(exp.Notes) != 1 || !strings.Contains(exp.Notes[0], "provenance") {
		t.Fatalf("notes = %v", exp.Notes)
	}
}

// TestV3MalformedProvenanceRejected: a provenance body that passes its
// checksum but does not decode fails the mapped open as it fails the eager
// read, with a *SectionError naming "provenance".
func TestV3MalformedProvenanceRejected(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 3, Merged: 3}
	data := v3Reseal(t, v3Bytes(t, e), dbSecProvenance, func(p []byte) {
		for i := range p {
			p[i] = 0xff
		}
	})
	db, err := newMappedDB(data)
	if err != nil {
		t.Fatalf("the index is intact, open must succeed: %v", err)
	}
	_, mappedErr := db.Experiment()
	_, eagerErr := Read(bytes.NewReader(data))
	for reader, err := range map[string]error{"mapped": mappedErr, "eager": eagerErr} {
		var serr *SectionError
		if !errors.As(err, &serr) || serr.Section != "provenance" {
			t.Errorf("%s reader: error %v, want a SectionError of the provenance section", reader, err)
		}
	}
}

// TestV3IndexAndTrailerCorruption flips every byte of the index and
// trailer in turn: each must fail the open (the O(index) trust boundary).
func TestV3IndexAndTrailerCorruption(t *testing.T) {
	e := fixture(t)
	data := v3Bytes(t, e)
	secs, err := parseV3Index(data)
	if err != nil {
		t.Fatal(err)
	}
	last := secs[len(secs)-1]
	indexOff := last.off + alignUpTest(last.length)
	for off := indexOff; off < int64(len(data)); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if _, err := newMappedDB(bad); err == nil {
			t.Fatalf("flipping index/trailer byte %d went undetected", off)
		}
	}
}

func alignUpTest(n int64) int64 { return (n + 7) &^ 7 }

func TestV3TruncationAlwaysErrors(t *testing.T) {
	e := fixture(t)
	data := v3Bytes(t, e)
	for cut := 0; cut < len(data); cut++ {
		if _, err := newMappedDB(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected at open", cut)
		}
	}
}

func TestOpenMappedMissingFile(t *testing.T) {
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "nope.db")); err == nil {
		t.Fatal("open of a missing file succeeded")
	}
}

// v3Reseal returns a copy of data with edit applied to the payload of every
// section of the given kind, the section, the index and the trailer
// re-sealed after the edit so the damage passes every checksum.
func v3Reseal(t testing.TB, data []byte, kind byte, edit func(payload []byte)) []byte {
	t.Helper()
	data = append([]byte(nil), data...)
	secs, err := parseV3Index(data)
	if err != nil {
		t.Fatal(err)
	}
	tr := data[len(data)-v3TrailerSize:]
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	idx := data[indexOff : len(data)-v3TrailerSize]
	for i, s := range secs {
		if s.kind != kind {
			continue
		}
		edit(data[s.off : s.off+s.length])
		crc := framing.ChecksumPadded(data[s.off : s.off+framing.AlignUp(s.length)])
		binary.LittleEndian.PutUint32(idx[i*v3EntrySize+24:], crc)
	}
	binary.LittleEndian.PutUint32(tr[16:], framing.Checksum(idx))
	return data
}

// v3BadTrees returns v3 databases whose tree section is malformed behind
// valid checksums (the section, the index and the trailer are re-sealed
// after the edit), so the damage reaches the tree decoder itself: two
// siblings sharing a key, and a child count with no bytes left to hold the
// children.
func v3BadTrees(t testing.TB) map[string][]byte {
	t.Helper()
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("p", reg)
	for line := 1; line <= 2; line++ {
		n := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("f"), File: core.Sym("f.c"), Line: line}, true)
		n.Base.Add(0, float64(line))
	}
	tree.ComputeMetrics()
	var buf bytes.Buffer
	if err := New(tree).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	// The section is the root count and ten one-byte varints per scope:
	// the second scope's line is byte 14, its child count the last byte.
	reseal := func(edit func(payload []byte)) []byte {
		return v3Reseal(t, buf.Bytes(), dbSecTree, func(p []byte) {
			if len(p) != 21 {
				t.Fatalf("tree section is %d bytes, the edits below assume 21", len(p))
			}
			edit(p)
		})
	}
	return map[string][]byte{
		"duplicate sibling key":            reseal(func(p []byte) { p[14] = p[4] }),
		"child count beyond the remaining": reseal(func(p []byte) { p[20] = 5 }),
	}
}

// TestV3MalformedTreeRejected pins the error class of a tree section that
// passes its checksum but cannot be a tree: a *SectionError naming "tree",
// from the mapped and the eager reader alike.
func TestV3MalformedTreeRejected(t *testing.T) {
	for name, data := range v3BadTrees(t) {
		db, err := newMappedDB(data)
		if err != nil {
			t.Fatalf("%s: the index is intact, open must succeed: %v", name, err)
		}
		_, mappedErr := db.Experiment()
		_, eagerErr := Read(bytes.NewReader(data))
		for reader, err := range map[string]error{"mapped": mappedErr, "eager": eagerErr} {
			var serr *SectionError
			if !errors.As(err, &serr) || serr.Section != "tree" {
				t.Errorf("%s, %s reader: error %v, want a SectionError of the tree section", name, reader, err)
			}
		}
	}
}

// TestReadV3SizedBuffer: the eager v3 read takes the input's measured size
// as a hint only. Right, unknown, short and long sizes read the same
// experiment, and the right one reads it into one buffer instead of a
// doubling series that allocates the database's length over again.
func TestReadV3SizedBuffer(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("p", reg)
	for i := 1; i <= 20000; i++ {
		n := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("f"), File: core.Sym("f.c"), Line: i}, true)
		n.Base.Add(0, float64(i))
	}
	tree.ComputeMetrics()
	want := New(tree)
	data := v3Bytes(t, want)

	allocated := func(size int64) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		buf, err := readInput(bufio.NewReader(bytes.NewReader(data)), size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, err := readBinaryV3(buf)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		equalExperiments(t, want, got)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	n := int64(len(data))
	exact, unknown := allocated(n), allocated(-1)
	for _, size := range []int64{0, 1, n / 2, n - 1, n + 1, 4 * n} {
		allocated(size)
	}
	if exact+uint64(n)/2 > unknown {
		t.Errorf("reading %d bytes allocated %d with the size known and %d without: the buffer was regrown", n, exact, unknown)
	}
}

// TestV3LegacyTraceSectionsSkipped: a legacy file's trace, pyramid and
// tracemeta sections are bounds-checked in the index like every section,
// but their bodies are neither read nor checksummed, so damage inside one
// goes unseen, and the open notes the skip once.
// Any other unknown kind is still refused.
func TestV3LegacyTraceSectionsSkipped(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "legacy_traced_v3.cpdb"))
	if err != nil {
		t.Fatal(err)
	}
	secs, err := parseV3Index(data)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[byte]int{}
	for _, s := range secs {
		kinds[s.kind]++
	}
	for _, k := range []byte{dbSecTrace, dbSecPyramid, dbSecTraceMeta} {
		if kinds[k] == 0 {
			t.Fatalf("fixture has no section of kind %d: %v", k, kinds)
		}
	}
	open := func(data []byte) (*Experiment, map[string]int, error) {
		db, err := newMappedDB(data)
		if err != nil {
			return nil, nil, err
		}
		e, err := db.Experiment()
		return e, db.SectionReads(), err
	}
	e, reads, err := open(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{SkippedTraceNote}; !reflect.DeepEqual(e.Notes, want) {
		t.Fatalf("notes %q, want %q", e.Notes, want)
	}
	for _, name := range []string{"trace", "pyramid", "tracemeta"} {
		if reads[name] != 0 {
			t.Fatalf("%s sections read: %v", name, reads)
		}
	}

	// Damage inside every trace-kind body goes unread.
	for _, k := range []byte{dbSecTrace, dbSecPyramid, dbSecTraceMeta} {
		bad := v3CorruptSection(t, data, func(s v3sec) bool { return s.kind == k })
		e, _, err := open(bad)
		if err != nil {
			t.Fatalf("kind %d body damaged: %v", k, err)
		}
		if len(e.Notes) != 1 {
			t.Fatalf("kind %d body damaged: notes %q, want the one skip note", k, e.Notes)
		}
	}

	// The index still bounds them: a trace entry whose length runs past
	// its span, and a kind no reader knows, are refused.
	reindex := func(edit func(en []byte)) []byte {
		out := append([]byte(nil), data...)
		tr := out[len(out)-v3TrailerSize:]
		idx := out[binary.LittleEndian.Uint64(tr[0:8]) : len(out)-v3TrailerSize]
		for i, s := range secs {
			if s.kind == dbSecTrace {
				edit(idx[i*v3EntrySize:])
				break
			}
		}
		binary.LittleEndian.PutUint32(tr[16:], framing.Checksum(idx))
		return out
	}
	for name, bad := range map[string][]byte{
		"overlong": reindex(func(en []byte) {
			binary.LittleEndian.PutUint64(en[16:], binary.LittleEndian.Uint64(en[16:])+64)
		}),
		"kind 11": reindex(func(en []byte) { en[0] = 11 }),
	} {
		if _, err := newMappedDB(bad); err == nil {
			t.Errorf("%s: the index was accepted", name)
		}
	}
}
