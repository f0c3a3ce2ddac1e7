package engine

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/expdb"
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

// TestConcurrentSessionsOverMappedSnapshot is the zero-copy layout's
// concurrency gate, designed to run under -race: 8 sessions share ONE
// mapped snapshot, each registering session-private derived metrics and
// running a diff (Compare + Back) that recomputes over the shared slabs,
// while renders race the first-touch column checksum passes. Every session
// must render byte-identically to the same stream replayed in isolation,
// and — the mapped file being the shared substrate — its bytes must be
// bit-for-bit untouched afterwards: all writes land in copy-on-write heap
// slabs, never the mapping.
func TestConcurrentSessionsOverMappedSnapshot(t *testing.T) {
	path, original := v3FixtureFile(t)
	const sessions = 8
	streams := commandStreams(sessions)
	// Fold a diff recompute into every stream: diff the database against
	// itself from the catalog, render inside the diff, and come back.
	for i := range streams {
		streams[i] = append(append([]string{}, streams[i]...), "diff self CYCLES", "expandall", "ls", "back", "ls")
	}

	catalogFor := func(sn *Snapshot) SnapshotCatalog {
		return SnapshotCatalog{"self": mappedSnapshot(t, path)}
	}

	want := make([]string, sessions)
	for i, stream := range streams {
		sn := mappedSnapshot(t, path)
		s := NewSession(sn)
		s.SetCatalog(catalogFor(sn))
		want[i] = replay(s, stream)
		s.Close()
	}
	for i, w := range want {
		if !strings.Contains(w, "scope") {
			t.Fatalf("stream %d produced no render:\n%s", i, w)
		}
		if !strings.Contains(w, "diff:") {
			t.Fatalf("stream %d never entered the diff:\n%s", i, w)
		}
	}

	shared := mappedSnapshot(t, path)
	catalog := catalogFor(shared)
	got := make([]string, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSession(shared)
			defer s.Close()
			s.SetCatalog(catalog)
			got[i] = replay(s, streams[i])
		}(i)
	}
	wg.Wait()

	for i := range got {
		if got[i] != want[i] {
			t.Errorf("session %d over the shared mapping diverged from isolated replay\n--- shared ---\n%s\n--- isolated ---\n%s",
				i, got[i], want[i])
		}
	}

	// The mapping is read-only end to end: derived-metric materialization,
	// summary sorts and the diff recompute all went through copy-on-write.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(original, after) {
		t.Fatal("mapped database bytes changed under concurrent sessions")
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
