package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/oracle"
	"repro/internal/render"
)

// diffPair builds the before/after experiments the diff goldens present:
// the paper's worked example, and a perturbed run where the hot loop
// statement got slower, f's local work grew, one call path disappeared and
// a new one showed up.
func diffPair(t testing.TB) (before, after *expdb.Experiment) {
	t.Helper()
	a := core.Fig1Tree()
	m := a.FindPath("m")
	if m == nil {
		t.Fatal("Fig1 tree has no m")
	}
	stale := m.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("stale"), File: core.Sym("file3.c"), Line: 1}, true)
	stale.CallFile, stale.CallLine = core.Sym("file1.c"), 9
	stale.Child(core.Key{Kind: core.KindStmt, File: core.Sym("file3.c"), Line: 2}, true).Base.Add(0, 2)
	a.ComputeMetrics()

	b := core.Fig1Tree()
	core.Walk(b.Root, func(n *core.Node) bool {
		if n.Kind == core.KindStmt && n.File == core.Sym("file2.c") && n.Line == 9 {
			n.Base.Add(0, 6) // the loop nest regressed
		}
		if n.Kind == core.KindStmt && n.File == core.Sym("file1.c") && n.Line == 2 {
			n.Base.Add(0, 2) // f's own statement too
		}
		return true
	})
	mb := b.FindPath("m")
	fresh := mb.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("fresh"), File: core.Sym("file3.c"), Line: 5}, true)
	fresh.CallFile, fresh.CallLine = core.Sym("file1.c"), 10
	fresh.Child(core.Key{Kind: core.KindStmt, File: core.Sym("file3.c"), Line: 6}, true).Base.Add(0, 5)
	b.ComputeMetrics()

	return expdb.New(a), expdb.New(b)
}

// diffSession opens a session on the before-run with the after-run in its
// catalog under "after".
func diffSession(t testing.TB, before, after *expdb.Experiment) *Session {
	t.Helper()
	s := NewSession(NewSnapshot(before))
	s.SetCatalog(SnapshotCatalog{"after": NewSnapshot(after)})
	return s
}

// runScript drives a session through Exec lines, failing on user errors,
// and returns the concatenated output.
func runScript(t testing.TB, s *Session, script []string) string {
	t.Helper()
	var out strings.Builder
	for _, line := range script {
		resp := s.Do(Request{Line: line})
		if resp.Err != "" {
			t.Fatalf("%q: %s", line, resp.Err)
		}
		out.WriteString(resp.Output)
	}
	return out.String()
}

// TestGoldenDiffViews locks what a diff session renders in all three views:
// the union scopes with per-input, delta, ratio and presence columns are
// ordinary metrics, so cc, callers and flat need no diff-specific code.
// Regenerate with `go test ./internal/engine -run TestGoldenDiffViews -update`.
func TestGoldenDiffViews(t *testing.T) {
	cases := []struct {
		name   string
		script []string
	}{
		{"diff_cc", []string{"diff after", "sort cost[B-A]", "expandall"}},
		{"diff_callers", []string{"diff after", "view callers", "expandall", "sort cost[B-A]"}},
		{"diff_flat", []string{"diff after", "view flat", "sort cost[B-A]:excl"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before, after := diffPair(t)
			s := diffSession(t, before, after)
			defer s.Close()
			runScript(t, s, tc.script)
			var b strings.Builder
			if err := s.Render(&b, render.Options{}); err != nil {
				t.Fatal(err)
			}
			got := b.String()

			path := filepath.Join("testdata", "golden_"+tc.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestDiffCommandLifecycle exercises the command surface around a diff:
// the catalog listing and the diff banner, then, step by step as the model
// has them, a diff against an unknown name and a back outside a diff
// failing, a hot path over a delta column and back restoring the original
// database and its registry.
func TestDiffCommandLifecycle(t *testing.T) {
	before, after := diffPair(t)
	s := diffSession(t, before, after)
	defer s.Close()
	if out := runScript(t, s, []string{"catalog", "diff after"}); !strings.Contains(out, "after\n") || !strings.Contains(out, `vs B "after" (1 ranks), mode none`) {
		t.Fatalf("catalog listing or diff banner missing: %q", out)
	}
	rig := memRig(before, after)
	script := []string{"diff missing", "back", "diff other", "hot cost[B-A]", "metrics", "back", "back", "metrics"}
	if _, err := oracle.Check(rig.model, script, surface(rig.session(rig.open()))); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDiffSessions runs 8 sessions over the same snapshot pair,
// each diffing and presenting the union at once (exercised under -race in
// CI): each prints what its script prints alone, where every step lists
// what the model does. The inputs are only read, and each union is private
// to its session.
func TestConcurrentDiffSessions(t *testing.T) {
	rig := memRig(diffPair(t))
	scripts := rig.scripts(4, 30, "diff other", "sort cost[B-A]", "expandall", "view callers", "expandall")
	rig.concurrently(t, 8, scripts, rig.alone(t, scripts))
}
