package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/report"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// reportGoldenDB writes the database cmd/hpcreport's golden report is
// built from: pflotran at 3 ranks with CYCLES mean/max summaries, as v3.
func reportGoldenDB(t *testing.T) string {
	t.Helper()
	spec, err := workloads.ByName("pflotran")
	if err != nil {
		t.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: 3, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AddSummaries(res.Tree.Reg.ByName("CYCLES").ID, metric.OpMean, metric.OpMax); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := expdb.FromMerge(res).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pflotran.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportAgreesWithEngine: the report's findings are queries a viewer
// session can ask. Its waste and imbalance factor are the derived columns
// R*($max - $mean) and $max/$mean - 1, cell for cell, and each hot path
// is what the hot command highlights from that entry frame.
func TestReportAgreesWithEngine(t *testing.T) {
	snap, err := Open(reportGoldenDB(t))
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	exp := snap.Experiment()
	rep, err := report.Build(exp, report.Options{Top: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.HotPaths) != 1 || len(rep.Waste) != 1 || len(rep.Imbalance) != 1 {
		t.Fatalf("report has %d hot paths, %d waste and %d imbalance analyses, want 1 each",
			len(rep.HotPaths), len(rep.Waste), len(rep.Imbalance))
	}

	s := NewSession(snap)
	defer s.Close()
	reg := s.Registry()
	mean, max := reg.ByName("CYCLES (mean)").ID, reg.ByName("CYCLES (max)").ID
	execOK(t, s,
		fmt.Sprintf("derived factor=$%d/$%d - 1", max, mean),
		fmt.Sprintf("derived waste=%d*($%d - $%d)", exp.NRanks, max, mean))
	factor, waste := reg.ByName("factor").ID, reg.ByName("waste").ID

	// Frames by their frame-label path, the report's key.
	frames := map[string][]*core.Node{}
	var path []string
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		depth := len(path)
		if n.Kind == core.KindFrame {
			path = append(path, n.Label())
			key := strings.Join(path, "\x00")
			frames[key] = append(frames[key], n)
		}
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:depth]
	}
	walk(exp.Tree.Root)

	scopes := append(slices.Clone(rep.Waste[0].TopScopes), rep.Imbalance[0].Worst...)
	if len(scopes) == 0 {
		t.Fatal("report ranks no frames")
	}
	for _, sc := range scopes {
		at := frames[strings.Join(sc.Path, "\x00")]
		if len(at) != 1 {
			t.Fatalf("%q: %d frames on this path, want 1", sc.Path, len(at))
		}
		n := at[0]
		if got := s.cellValue(n, factor, true); got != sc.Factor {
			t.Errorf("%q: session factor %v, report %v", sc.Path, got, sc.Factor)
		}
		if got := s.cellValue(n, waste, true); got != sc.Waste {
			t.Errorf("%q: session waste %v, report %v", sc.Path, got, sc.Waste)
		}
	}

	for i, hp := range rep.HotPaths {
		hs := NewSession(snap)
		hs.Select(exp.Tree.Root.Children[i])
		execOK(t, hs, "hot "+hp.Metric)
		var lit []string
		for _, row := range hs.VisibleRows() {
			if hs.highlight[row.Node] {
				lit = append(lit, row.Node.Label())
			}
		}
		hs.Close()
		var steps []string
		for _, st := range hp.Steps {
			steps = append(steps, st.Label)
		}
		if !slices.Equal(lit, steps) {
			t.Errorf("hot path from %s: session highlights %q, report steps %q", hp.Root, lit, steps)
		}
	}
}
