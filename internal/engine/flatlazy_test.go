package engine

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
	"repro/internal/oracle"
	"repro/internal/workloads"
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

// workloadTree samples and merges a case-study workload at the given ranks,
// with summary columns beside the raw ones.
func workloadTree(tb testing.TB, spec workloads.Spec, ranks int) *core.Tree {
	tb.Helper()
	res := mergeWorkload(tb, spec, ranks)
	for _, d := range res.Tree.Reg.Columns() {
		if d.Kind == metric.Raw {
			if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMax); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return res.Tree
}

// flatTranscripts runs script over a session that builds its Flat View as
// it shows it and over one given the complete build, and returns both
// transcripts. {M} in a line is the first metric column.
func flatTranscripts(snap *Snapshot, script []string) (lazy, complete string) {
	m := ""
	if cols := snap.Tree().Reg.Columns(); len(cols) > 0 {
		m = cols[0].Name
	}
	run := func(s *Session) string {
		defer s.Close()
		var out strings.Builder
		for _, line := range script {
			resp := s.Do(Request{Line: strings.ReplaceAll(line, "{M}", m)})
			out.WriteString(resp.Output)
			if resp.Err != "" {
				fmt.Fprintf(&out, "error: %s\n", resp.Err)
			}
		}
		return out.String()
	}
	full := NewSession(snap)
	full.flat = core.BuildFlatView(snap.Tree())
	return run(NewSession(snap)), run(full)
}

// TestFlatViewLazyMatchesComplete: a session that builds the rows below
// procedures only when it first needs one renders every Flat View script
// byte for byte as a session given the complete build does — whichever
// command needs them first, and with derived overlay columns materialized
// before the view grows.
func TestFlatViewLazyMatchesComplete(t *testing.T) {
	trees := []struct {
		name string
		tree func(testing.TB) *core.Tree
	}{
		{"fig2", func(testing.TB) *core.Tree { return core.Fig1Tree() }},
		{"frameless", framelessTree},
		{"recursive", func(testing.TB) *core.Tree {
			tree, _ := oracle.RandomCCTShape(5, 3000, oracle.CCTShape{Cols: 1, RecDepth: 5})
			return tree
		}},
	}
	for _, spec := range []workloads.Spec{workloads.S3D(), workloads.MOAB(), workloads.PFLOTRAN()} {
		trees = append(trees, struct {
			name string
			tree func(testing.TB) *core.Tree
		}{spec.Name, func(tb testing.TB) *core.Tree { return workloadTree(tb, spec, 4) }})
	}
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			snap := NewSnapshot(expdb.New(tc.tree(t)))
			defer snap.Close()
			// Every procedure is a top-level row at flatten 2; expanding
			// them from the last up keeps the numbers of the rest.
			probe := NewSession(snap)
			flatLs(t, probe, io.Discard)
			probe.FlattenOnce()
			probe.FlattenOnce()
			procs := len(probe.VisibleRows())
			probe.Close()
			expandEach := []string{"view flat", "flatten", "flatten", "ls"}
			for i := procs - 1; i >= 0; i-- {
				expandEach = append(expandEach, fmt.Sprintf("expand %d", i))
			}
			scripts := [][]string{
				{"view flat", "ls", "flatten", "ls", "flatten", "ls", "flatten", "ls", "flatten", "ls"},
				expandEach,
				{"view flat", "expand 0", "expand 1", "expand 2", "ls"},
				{"view flat", "ls", "hot {M}", "ls", "unflatten", "flatten", "ls"},
				{"view flat", "flatten", "flatten", "hot {M}", "flatten", "ls"},
				{"view flat", "sort {M}:excl", "ls", "flatten", "flatten", "sort name", "ls", "expandall", "sort {M}", "ls"},
				{"view flat", "ls", "derived d=$0*2+1", "sort d", "ls", "stats d", "expandall", "stats d", "ls"},
				{"view flat", "expandall"},
				{"view flat", "flatten", "expandall 0", "view cc", "view flat", "ls", "flatten", "flatten", "flatten", "ls"},
			}
			for i, script := range scripts {
				lazy, complete := flatTranscripts(snap, script)
				if lazy != complete {
					t.Errorf("script %d %q: the lazy view renders differently\n--- lazy ---\n%s\n--- complete ---\n%s", i, script, lazy, complete)
				}
			}
		})
	}
}

// TestFlatViewTopAllocations: `view flat` + `ls` builds the module, file and
// procedure rows only, so with its snapshot and session it allocates a
// small fraction of a complete build's objects.
func TestFlatViewTopAllocations(t *testing.T) {
	tree := bushyTree(t, 20_000, 3)
	exp := expdb.New(tree)
	complete := testing.AllocsPerRun(5, func() { core.BuildFlatView(tree) })
	top := testing.AllocsPerRun(5, func() {
		snap := NewSnapshot(exp)
		s := NewSession(snap)
		flatLs(t, s, io.Discard)
		s.Close()
		snap.Close()
	})
	if top*5 > complete {
		t.Fatalf("view flat + ls allocates %v objects against %v for a complete build, want at most a fifth", top, complete)
	}
	t.Logf("view flat + ls: %v allocations, a complete build %v", top, complete)
}
