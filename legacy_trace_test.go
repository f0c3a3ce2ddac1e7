package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/oracle"
)

// TestLegacyTracedV3 opens a v3 file written with time-dimension trace
// sections (kinds 8–10), which the readers now skip. The fixtures come from
// one measurement: `hpcrun -w toy -ranks 2 -trace`, `hpcstruct -w toy`,
// then `hpcprof -traces -format v3` for legacy_traced_v3.cpdb and `hpcprof
// -format v3` for its untraced twin, legacy_untraced_v3.cpdb. On every
// open route the traced file carries exactly the one skip note, writes
// back as the twin's bytes, and renders the three views as the twin does.
func TestLegacyTracedV3(t *testing.T) {
	dir := filepath.Join("internal", "expdb", "testdata")
	traced := filepath.Join(dir, "legacy_traced_v3.cpdb")
	twinBytes, err := os.ReadFile(filepath.Join(dir, "legacy_untraced_v3.cpdb"))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := expdb.Read(bytes.NewReader(twinBytes))
	if err != nil {
		t.Fatal(err)
	}
	if len(twin.Notes) != 0 {
		t.Fatalf("the untraced twin opens with notes %q", twin.Notes)
	}
	wantViews := renderViews(t, engine.NewSnapshot(twin))

	check := func(t *testing.T, snap *engine.Snapshot) {
		t.Helper()
		if got, want := snap.Notes(), []string{expdb.SkippedTraceNote}; !reflect.DeepEqual(got, want) {
			t.Errorf("notes %q, want %q", got, want)
		}
		var buf bytes.Buffer
		if err := snap.Experiment().WriteBinaryV3(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), twinBytes) {
			t.Errorf("re-encoded: %d bytes, twin %d, first difference at byte %d", buf.Len(), len(twinBytes), firstByte(buf.Bytes(), twinBytes))
		}
		if got := renderViews(t, snap); got != wantViews {
			t.Errorf("views differ from the twin's at %s", oracle.FirstDiff(got, wantViews))
		}
	}

	t.Run("engine.Open", func(t *testing.T) {
		snap, err := engine.Open(traced)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		check(t, snap)
	})
	t.Run("expdb.Read", func(t *testing.T) {
		f, err := os.Open(traced)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		e, err := expdb.Read(f)
		if err != nil {
			t.Fatal(err)
		}
		check(t, engine.NewSnapshot(e))
	})
	t.Run("OpenMapped", func(t *testing.T) {
		db, err := expdb.OpenMapped(traced)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := engine.NewMappedSnapshot(db)
		if err != nil {
			db.Close()
			t.Fatal(err)
		}
		defer snap.Close()
		check(t, snap)
	})
	// The ingest gate takes the skip note for what it is, no damage: the
	// file validates, ingests, and serves with the one note.
	t.Run("catalog.ValidateFile", func(t *testing.T) {
		if err := catalog.ValidateFile(traced); err != nil {
			t.Fatalf("ValidateFile: %v", err)
		}
		data, err := os.ReadFile(traced)
		if err != nil {
			t.Fatal(err)
		}
		c := catalog.New(catalog.Config{Dir: t.TempDir()})
		defer c.Close()
		if err := c.Ingest(catalog.Key{Service: "legacy", Ts: 1}, bytes.NewReader(data)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		snap, _, err := c.Acquire("legacy")
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()
		check(t, snap)
	})
}
