package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diff"
	"repro/internal/expdb"
	"repro/internal/render"
)

// unionViews renders the three views of a union snapshot, each sorted by
// a comparison column, and releases the snapshot.
func unionViews(t *testing.T, snap *Snapshot) string {
	t.Helper()
	defer snap.Release()
	var out strings.Builder
	for _, script := range [][]string{
		{"sort cost[B-A]", "expandall"},
		{"view callers", "expandall", "sort cost[loss(B)]"},
		{"view flat", "expandall", "sort cost[B/A]:excl"},
	} {
		s := NewSession(snap)
		runScript(t, s, script)
		if err := s.Render(&out, render.Options{}); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	return out.String()
}

// TestUnionFilesOpenTheSame: union files written while the comparison
// columns were stored as computed values (testdata/union_computed_*,
// `hpcdiff -norm total -threshold 0 -o` over diffPair at 1 and 4 ranks)
// render every view byte for byte like a fresh union of the same inputs,
// whose comparison columns are formulas, and like that union reopened from
// every format.
func TestUnionFilesOpenTheSame(t *testing.T) {
	before, after := diffPair(t)
	after.NRanks = 4
	res, err := diff.Diff(diff.Config{Norm: diff.NormTotal},
		diff.Input{Exp: before}, diff.Input{Exp: after})
	if err != nil {
		t.Fatal(err)
	}
	want := unionViews(t, NewSnapshot(res.Exp))

	paths := []string{
		filepath.Join("testdata", "union_computed_v2.cpdb"),
		filepath.Join("testdata", "union_computed_v3.cpdb"),
	}
	dir := t.TempDir()
	for _, format := range []string{"binary", "v3", "xml"} {
		write, err := expdb.WriterFor(format)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "union."+format)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(res.Exp, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		snap, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := unionViews(t, snap); got != want {
			t.Fatalf("%s renders differently:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
		}
	}
}

// TestDiffColumnsAreFormulas: a diff session lists the comparison columns
// as derived metrics with their formulas, and a session formula can build
// on them.
func TestDiffColumnsAreFormulas(t *testing.T) {
	before, after := diffPair(t)
	after.NRanks = 4
	s := diffSession(t, before, after)
	defer s.Close()
	out := runScript(t, s, []string{"diff after", "metrics"})
	for _, line := range []string{
		"cost[B-A]                  derived  $1 - $0\n",
		"cost[B/A]                  derived  $1 / $0\n",
		"cost[loss(B)]              derived  (1 - $0*1/$1) * ($1/$1)\n",
		"in[B]                      computed \n",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("metrics output lacks %q:\n%s", line, out)
		}
	}
	// At m the baseline's 12 cycles meet the big run's 23/4 per rank:
	// loss 1 - 12/5.75.
	out = runScript(t, s, []string{"derived lossPct=$4*100", "stats lossPct"})
	if !strings.Contains(out, "sum=-108.70") {
		t.Fatalf("stats over a formula on the loss column: %q", out)
	}
}
