package engine

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
	"repro/internal/render"
)

// v3FixtureFile writes the merged multi-rank fixture as a mapped-format
// (v3) database file and returns its path and exact bytes.
func v3FixtureFile(t *testing.T) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := mergedFixture(t).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "experiment.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func mappedSnapshot(t *testing.T, path string) *Snapshot {
	t.Helper()
	mdb, err := expdb.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewMappedSnapshot(mdb)
	if err != nil {
		mdb.Close()
		t.Fatal(err)
	}
	return sn
}

// corruptColumn returns a copy of a v3 database with one payload byte of
// its first column section flipped, every checksum left as it was. It
// walks the index the trailer points at (trailer: index offset u64 first;
// 32-byte entries: kind u8 at 0, offset u64 at 8, length u64 at 16; column
// sections are kind 7).
func corruptColumn(t *testing.T, data []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	idx := binary.LittleEndian.Uint64(out[len(out)-32:])
	for en := out[idx : len(out)-32]; len(en) >= 32; en = en[32:] {
		if en[0] == 7 {
			off, n := binary.LittleEndian.Uint64(en[8:]), binary.LittleEndian.Uint64(en[16:])
			out[off+n/2] ^= 0xff
			return out
		}
	}
	t.Fatal("no column section")
	return nil
}

// TestOpenReportsColumnDamage: a damaged column is found when the database
// opens, so its note is there before any session exists.
func TestOpenReportsColumnDamage(t *testing.T) {
	_, data := v3FixtureFile(t)
	path := filepath.Join(t.TempDir(), "damaged.db")
	if err := os.WriteFile(path, corruptColumn(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := Open(path)
	if err != nil {
		t.Fatalf("column damage must degrade, not fail the open: %v", err)
	}
	defer snap.Close()
	if notes := snap.Notes(); len(notes) != 1 || !strings.Contains(notes[0], "failed its CRC32C check") {
		t.Fatalf("notes at open = %q, want the column's CRC note", notes)
	}
}

// TestMappedSnapshotRefcount checks the unmap discipline: the mapping
// survives the creator's Close while sessions are live and is released
// only when the last session closes.
func TestMappedSnapshotRefcount(t *testing.T) {
	path, _ := v3FixtureFile(t)
	snap := mappedSnapshot(t, path)
	if !snap.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}

	s1 := NewSession(snap)
	s2 := NewSession(snap)
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if !snap.Mapped() {
		t.Fatal("creator Close unmapped under live sessions")
	}
	// Sessions still render off the mapping after the creator is gone.
	if resp := s1.Do(Request{Line: "expandall"}); resp.Err != "" {
		t.Fatalf("expandall: %s", resp.Err)
	}
	if resp := s1.Do(Request{Line: "ls"}); resp.Err != "" || !strings.Contains(resp.Output, "scope") {
		t.Fatalf("render after creator close: %q err=%s", resp.Output, resp.Err)
	}
	s1.Close()
	if !snap.Mapped() {
		t.Fatal("unmapped while one session remained")
	}
	s2.Close()
	if snap.Mapped() {
		t.Fatal("last session close did not release the mapping")
	}
	// Double close of a session must not double-release.
	s2.Close()
}

// TestViewsLeaveMappedColumnsBorrowed builds every view over the tree of a
// mapped database: a complete Flat View, the whole Callers View, a hot
// path, renders of all three, and a session script over them. A finished
// tree is only read, so every column the open adopted from the file must
// still alias it afterwards (a write would have copied it to the heap), and
// the columns the file omits as all-zero must still have no slab.
func TestViewsLeaveMappedColumnsBorrowed(t *testing.T) {
	path, _ := v3FixtureFile(t)
	sn, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	tree := sn.Tree()
	st := tree.MetricStore()
	planes := []metric.Plane{metric.PlaneBase, metric.PlaneIncl, metric.PlaneExcl}
	checkBorrowed := func(when string) {
		t.Helper()
		for _, p := range planes {
			borrowed := 0
			for col := 0; col < tree.Reg.Len(); col++ {
				switch {
				case st.Borrowed(p, col):
					borrowed++
				case len(st.ColRead(p, col)) != 0:
					t.Fatalf("%s: plane %d column %d is held on the heap, not in the file", when, p, col)
				}
			}
			if borrowed == 0 {
				t.Fatalf("%s: plane %d has no column in the file", when, p)
			}
		}
	}
	checkBorrowed("after open")

	flat := core.BuildFlatView(tree)
	callers := core.BuildCallersView(tree)
	callers.ExpandAll()
	cyc := tree.Reg.ByName("CYCLES").ID
	if len(core.HotPath(tree.Root, cyc, 0)) < 2 {
		t.Fatal("hot path stops at the root")
	}
	var out bytes.Buffer
	for _, err := range []error{
		render.RenderTree(&out, tree, render.Options{}),
		render.RenderCallers(&out, callers, tree, render.Options{}),
		render.RenderFlat(&out, flat, tree, render.Options{}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := NewSession(sn)
	defer s.Close()
	for _, line := range []string{
		"expandall", "hot CYCLES", "sort CYCLES",
		"view callers", "expandall", "hot CYCLES",
		"view flat", "expandall", "hot CYCLES", "ls",
	} {
		if _, err := Exec(s, line, &out); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	checkBorrowed("after the views")
}
