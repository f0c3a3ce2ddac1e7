package engine

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/expdb"
)

// flatLs switches a session to the Flat View and lists it, writing the
// render to w.
func flatLs(tb testing.TB, s *Session, w io.Writer) {
	tb.Helper()
	for _, line := range []string{"view flat", "ls"} {
		if _, err := Exec(s, line, w); err != nil {
			tb.Fatalf("%s: %v", line, err)
		}
	}
}

// TestFlatViewSharedWhileHeld: sessions of one snapshot present one Flat
// View while any of them holds it; once none does, the collector takes it
// back and the next session builds a view that renders the same bytes.
func TestFlatViewSharedWhileHeld(t *testing.T) {
	path, _ := v3FixtureFile(t)
	snap := mappedSnapshot(t, path)

	// The first two sessions live in this function only, so nothing
	// reaches their view once it returns.
	held := func() string {
		a, b := NewSession(snap), NewSession(snap)
		defer a.Close()
		defer b.Close()
		var outA, outB strings.Builder
		flatLs(t, a, &outA)
		flatLs(t, b, &outB)
		if a.flat != b.flat {
			t.Fatal("second session built its own Flat View while the first held one")
		}
		ra, rb := a.VisibleRows(), b.VisibleRows()
		if len(ra) == 0 || len(ra) != len(rb) {
			t.Fatalf("row counts %d and %d", len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Node != rb[i].Node {
				t.Fatalf("row %d: the sessions present different scopes", i)
			}
		}
		if outA.String() != outB.String() {
			t.Fatalf("sessions sharing a view render differently\n--- a ---\n%s\n--- b ---\n%s", outA.String(), outB.String())
		}
		return outA.String()
	}()

	runtime.GC()
	if snap.flat.Value() != nil {
		t.Fatal("the Flat View outlived every session that held it")
	}
	c := NewSession(snap)
	defer c.Close()
	var out strings.Builder
	flatLs(t, c, &out)
	if snap.flat.Value() != c.flat {
		t.Fatal("the rebuilt view is not the snapshot's")
	}
	if out.String() != held {
		t.Fatalf("rebuilt view renders differently\n--- rebuilt ---\n%s\n--- first ---\n%s", out.String(), held)
	}
}

// TestFlatViewSharedAllocations: a session that finds the Flat View held by
// another pays a small fraction of the build. Measured on this 20 000-scope
// tree: a cold `view flat` + `ls`, with its snapshot and session, made 457
// allocations, a shared one 30.
func TestFlatViewSharedAllocations(t *testing.T) {
	exp := expdb.New(bushyTree(t, 20_000, 3))
	cold := testing.AllocsPerRun(5, func() {
		snap := NewSnapshot(exp)
		s := NewSession(snap)
		flatLs(t, s, io.Discard)
		s.Close()
		snap.Close()
	})

	snap := NewSnapshot(exp)
	defer snap.Close()
	holder := NewSession(snap)
	defer holder.Close()
	flatLs(t, holder, io.Discard)
	shared := testing.AllocsPerRun(5, func() {
		s := NewSession(snap)
		flatLs(t, s, io.Discard)
		s.Close()
	})
	if shared*10 > cold {
		t.Fatalf("a shared view + ls allocates %v objects against %v for a cold build, want at most a tenth", shared, cold)
	}
	t.Logf("view flat + ls: cold %v allocations, shared %v", cold, shared)
}
