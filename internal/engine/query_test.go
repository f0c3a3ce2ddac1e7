package engine

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/render"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// mergeWorkload samples a workload at the given ranks and merges the
// profiles.
func mergeWorkload(tb testing.TB, spec workloads.Spec, ranks int) *merge.Result {
	tb.Helper()
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		tb.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mergedFixture builds a merged multi-rank experiment with summary columns
// beside the raw ones.
func mergedFixture(t testing.TB) *expdb.Experiment {
	t.Helper()
	res := mergeWorkload(t, workloads.Toy(), 3)
	cyc := res.Tree.Reg.ByName("CYCLES")
	if cyc == nil {
		t.Fatal("no CYCLES column")
	}
	if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
		t.Fatal(err)
	}
	return expdb.FromMerge(res)
}

// TestSortOrdersRepeatAndSeeDerived checks that rendering twice returns the
// same rows in the same order, and that sorting by a derived column added
// afterwards orders the rows as a fresh session does.
func TestSortOrdersRepeatAndSeeDerived(t *testing.T) {
	s := session(t)
	s.Expand(s.Tree().Root.Children[0])

	a := s.VisibleRows()
	first := make([]*core.Node, len(a))
	for i, r := range a {
		first[i] = r.Node
	}
	b := s.VisibleRows()
	if len(a) != len(b) {
		t.Fatalf("re-render changed row count: %d vs %d", len(a), len(b))
	}
	for i := range b {
		if b[i].Node != first[i] {
			t.Fatalf("re-render reordered row %d", i)
		}
	}

	// A derived metric brings new values: sorting by it must order by
	// them.
	if err := s.AddDerivedMetric("neg", "0 - $0"); err != nil {
		t.Fatal(err)
	}
	d := s.Registry().ByName("neg")
	s.SetSort(core.SortSpec{MetricID: d.ID})
	got := rowLabels(s.VisibleRows())
	// Derived columns are session-private now: the fresh session registers
	// the same formula and gets the same column ID (same base boundary).
	s2 := newTestSession(s.Tree(), nil)
	if err := s2.AddDerivedMetric("neg", "0 - $0"); err != nil {
		t.Fatal(err)
	}
	s2.Expand(s.Tree().Root.Children[0])
	s2.SetSort(core.SortSpec{MetricID: d.ID})
	want := rowLabels(s2.VisibleRows())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("session rows %v, fresh session rows %v", got, want)
	}
}

// TestChurnedSessionMatchesFresh drives one session through a churn of
// interactions and checks every render against a fresh session configured
// identically — no earlier interaction may show in the rows.
func TestChurnedSessionMatchesFresh(t *testing.T) {
	tr := core.Fig1Tree()
	s := newTestSession(tr, nil)
	check := func(step string) {
		t.Helper()
		fresh := newTestSession(tr, nil)
		fresh.SwitchView(s.view)
		fresh.expanded.bits = map[*metric.Store][]uint64{}
		for st, bits := range s.expanded.bits {
			fresh.expanded.bits[st] = slices.Clone(bits)
		}
		fresh.SetSort(s.sort)
		fresh.flatten = s.flatten
		fresh.zoom = append([]*core.Node(nil), s.zoom...)
		got, want := rowLabels(s.VisibleRows()), rowLabels(fresh.VisibleRows())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: churned rows %v, fresh rows %v", step, got, want)
		}
	}
	check("initial")
	if err := s.ExpandAll(tr.Root); err != nil {
		t.Fatal(err)
	}
	check("expandall")
	s.SetSort(core.SortSpec{MetricID: 0, Ascending: true})
	check("ascending")
	s.SetSort(core.SortSpec{ByLabel: true})
	check("bylabel")
	s.SwitchView(ViewFlat)
	if err := s.ExpandAll(tr.Root); err != nil {
		t.Fatal(err)
	}
	check("flat")
	if err := s.FlattenOnce(); err != nil {
		t.Fatal(err)
	}
	check("flattened")
	s.SwitchView(ViewCallers)
	if err := s.ExpandAll(tr.Root); err == nil {
		_ = err
	}
	check("callers")
}

// TestHotPathRepeatsAndFollowsThreshold checks that repeated hot-path
// queries return the same path and that a threshold change gives the path
// a fresh session finds at that threshold.
func TestHotPathRepeatsAndFollowsThreshold(t *testing.T) {
	s := session(t)
	p1 := s.HotPath(0)
	// HotPath selects the path endpoint; reset so the second query is
	// identical to the first.
	s.Select(nil)
	p2 := s.HotPath(0)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("hot path changed across identical queries: %v vs %v", p1, p2)
	}
	s.Select(nil)
	s.SetThreshold(0.99)
	p3 := s.HotPath(0)
	fresh := newTestSession(s.Tree(), nil)
	fresh.SetThreshold(0.99)
	want := fresh.HotPath(0)
	if len(p3) != len(want) {
		t.Fatalf("threshold change gave a %d-scope path, a fresh session %d", len(p3), len(want))
	}
}

// TestMappedSessionMatchesEager fronts a mapped database with a session
// sorted by a raw column, fully expanded, rendering a summary column: the
// output matches a session over the same database decoded whole, byte for
// byte.
func TestMappedSessionMatchesEager(t *testing.T) {
	path, data := v3FixtureFile(t)
	eager, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sn := mappedSnapshot(t, path)
	defer sn.Close()
	raw := sn.Tree().Reg.ByName("CYCLES")
	var cols []render.Column
	for _, d := range sn.Tree().Reg.Columns() {
		if d.Kind == metric.Summary {
			cols = []render.Column{{MetricID: d.ID, Inclusive: true}}
			break
		}
	}
	renderAll := func(s *Session) string {
		s.SetSort(core.SortSpec{MetricID: raw.ID})
		s.SetColumns(cols)
		if err := s.ExpandAll(s.Tree().Root); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := s.Render(&out, render.Options{}); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	s := NewSession(sn)
	defer s.Close()
	mapped, whole := renderAll(s), renderAll(newTestSession(eager.Tree, nil))
	if mapped != whole {
		t.Fatalf("mapped render differs from eager render:\n--- mapped ---\n%s--- eager ---\n%s", mapped, whole)
	}
}

// TestReplReadsNoSectionAgain: opening a mapped snapshot checksums every
// column section once, and a REPL script over all three views — column
// selection, sorts, expansion, hot paths, a derived column and its
// statistics, flattening — reads no section again.
func TestReplReadsNoSectionAgain(t *testing.T) {
	path, _ := v3FixtureFile(t)
	sn := mappedSnapshot(t, path)
	defer sn.Close()
	columns := 0
	for _, sp := range sn.SectionSpans() {
		if sp.Kind == "column" {
			columns++
		}
	}
	open := sn.mdb.SectionReads()
	if open["column"] != columns {
		t.Fatalf("open checksummed %d column sections, the file has %d", open["column"], columns)
	}
	s := NewSession(sn)
	defer s.Close()
	for _, line := range []string{
		"cols CYCLES", "ls", "expandall", "sort CYCLES", "hot CYCLES", "cols all",
		"derived f=$0*2", "sort f", "stats f", "view callers", "expandall", "hot CYCLES",
		"view flat", "flatten", "expandall", "hot CYCLES", "view cc", "ls",
	} {
		if _, err := Exec(s, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if got := sn.mdb.SectionReads(); !reflect.DeepEqual(got, open) {
		t.Fatalf("the script read sections %v, open had read %v", got, open)
	}
}
