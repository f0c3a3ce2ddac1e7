package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/expdb"
	"repro/internal/oracle"
	"repro/internal/render"
)

// unionViews renders the three views of a union snapshot, each sorted by
// a comparison column, and releases the snapshot.
func unionViews(t *testing.T, snap *Snapshot) (views [3]string) {
	t.Helper()
	defer snap.Release()
	for i, script := range [][]string{
		{"sort cost[B-A]", "expandall"},
		{"view callers", "expandall", "sort cost[loss(B)]"},
		{"view flat", "expandall", "sort cost[B/A]:excl"},
	} {
		s := NewSession(snap)
		runScript(t, s, script)
		var out strings.Builder
		if err := s.Render(&out, render.Options{}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		views[i] = out.String()
	}
	return views
}

// freshUnion is `hpcdiff -norm total -threshold 0` over diffPair at 1 and
// 4 ranks: the union the legacy files under testdata were written from.
func freshUnion(t *testing.T) *expdb.Experiment {
	t.Helper()
	before, after := diffPair(t)
	after.NRanks = 4
	res, err := diff.Diff(diff.Config{Norm: diff.NormTotal},
		diff.Input{Exp: before}, diff.Input{Exp: after})
	if err != nil {
		t.Fatal(err)
	}
	return res.Exp
}

// TestLegacyUnionFiles: union files written while the comparison columns
// were stored as computed values (testdata/union_computed_*) show those
// values as stored. The Calling Context View renders like a fresh union's;
// the Callers and Flat Views sum the stored values over the scopes a row
// folds, as they sum every stored column — every row is what oracle.Flat
// and oracle.Callers give — so their rows keep the renders in
// testdata/golden_union_computed.txt rather than a formula's value.
// Regenerate with `go test ./internal/engine -run TestLegacyUnionFiles
// -update`.
func TestLegacyUnionFiles(t *testing.T) {
	wantCC := unionViews(t, NewSnapshot(freshUnion(t)))[0]
	golden := filepath.Join("testdata", "golden_union_computed.txt")
	for _, name := range []string{"union_computed_v2.cpdb", "union_computed_v3.cpdb"} {
		snap, err := Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		tree := snap.Tree()
		if err := oracle.Flat(tree).Check(core.BuildFlatView(tree).Roots, 0); err != nil {
			t.Fatalf("%s: flat view: %v", name, err)
		}
		callers := core.BuildCallersView(tree)
		if err := callers.ExpandAll(); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Callers(tree).Check(callers.Roots, 0); err != nil {
			t.Fatalf("%s: callers view: %v", name, err)
		}
		views := unionViews(t, snap)
		if cc := views[0]; cc != wantCC {
			t.Fatalf("%s: calling context view renders differently:\n--- got ---\n%s\n--- want ---\n%s", name, cc, wantCC)
		}
		if *updateGolden {
			if err := os.WriteFile(golden, []byte(views[1]+views[2]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := views[1] + views[2]; got != string(want) {
			t.Fatalf("%s: callers and flat views differ from %s:\n--- got ---\n%s\n--- want ---\n%s", name, golden, got, want)
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
