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

// mergedFixture builds a merged multi-rank experiment with summary columns
// beside the raw ones.
func mergedFixture(t testing.TB) *expdb.Experiment {
	t.Helper()
	spec, err := workloads.ByName("toy")
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
	cyc := res.Tree.Reg.ByName("CYCLES")
	if cyc == nil {
		t.Fatal("no CYCLES column")
	}
	if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
		t.Fatal(err)
	}
	return expdb.FromMerge(res)
}

// TestSortOrdersMemoized checks the observable of the query cache: reusing
// a sibling order across renders returns the identical slice, and anything
// that can change metric values invalidates it.
func TestSortOrdersMemoized(t *testing.T) {
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

	// A derived metric changes values: sorting by it must see the fresh
	// column, not a stale memoized order.
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
		t.Fatalf("cached session rows %v, fresh session rows %v", got, want)
	}
}

// TestCachedSessionMatchesFresh drives one session through a churn of
// interactions and checks every render against a fresh, uncached session
// configured identically — the cache must be invisible.
func TestCachedSessionMatchesFresh(t *testing.T) {
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
			t.Fatalf("%s: cached rows %v, fresh rows %v", step, got, want)
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

// TestHotPathMemoized checks that repeated hot-path queries return the same
// path and that the memoized result respects threshold changes.
func TestHotPathMemoized(t *testing.T) {
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
		t.Fatalf("threshold change served stale path: %d vs %d scopes", len(p3), len(want))
	}
}

// columnReads reports how many column sections the mapped database behind
// sn has checksummed.
func columnReads(sn *Snapshot) int { return sn.mdb.SectionReads()["column"] }

// TestColumnFaulterLazySession fronts a mapped database with a session:
// only the columns the scripted interaction touches are faulted, each
// exactly once and with one generation bump, and the rendered values match
// a session over the same database decoded whole, byte for byte.
func TestColumnFaulterLazySession(t *testing.T) {
	path, data := v3FixtureFile(t)
	eager, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sn := mappedSnapshot(t, path)
	defer sn.Close()
	s := NewSession(sn)
	defer s.Close()
	if n := columnReads(sn); n != 0 {
		t.Fatalf("open checksummed %d column sections, want 0", n)
	}

	// Sorting by the raw column faults that column and no other, once.
	raw := s.Tree().Reg.ByName("CYCLES")
	s.SetSort(core.SortSpec{MetricID: raw.ID})
	s.VisibleRows()
	rawReads := columnReads(sn)
	if rawReads == 0 || sn.Generation() != 1 {
		t.Fatalf("first query by one column: %d sections checksummed, generation %d", rawReads, sn.Generation())
	}
	s.VisibleRows()
	if n := columnReads(sn); n != rawReads || sn.Generation() != 1 {
		t.Fatalf("second query faulted again: %d sections (was %d), generation %d", n, rawReads, sn.Generation())
	}

	// Rendering a summary column faults it in; the output then matches an
	// eager session rendering the same thing.
	var sum int
	for _, d := range s.Tree().Reg.Columns() {
		if d.Kind == metric.Summary {
			sum = d.ID
			break
		}
	}
	cols := []render.Column{{MetricID: sum, Inclusive: true}}
	s.SetColumns(cols)
	if err := s.ExpandAll(s.Tree().Root); err != nil {
		t.Fatal(err)
	}
	var lazyOut bytes.Buffer
	if err := s.Render(&lazyOut, render.Options{}); err != nil {
		t.Fatal(err)
	}
	if n := columnReads(sn); n <= rawReads || sn.Generation() != 2 {
		t.Fatalf("summary render: %d sections checksummed (was %d), generation %d", n, rawReads, sn.Generation())
	}

	se := newTestSession(eager.Tree, nil)
	se.SetSort(core.SortSpec{MetricID: raw.ID})
	se.SetColumns(cols)
	if err := se.ExpandAll(se.Tree().Root); err != nil {
		t.Fatal(err)
	}
	var eagerOut bytes.Buffer
	if err := se.Render(&eagerOut, render.Options{}); err != nil {
		t.Fatal(err)
	}
	if lazyOut.String() != eagerOut.String() {
		t.Fatalf("lazy render differs from eager render:\n--- lazy ---\n%s--- eager ---\n%s", lazyOut.String(), eagerOut.String())
	}

	// FaultAll checksums what is left, and nothing twice.
	sections := 0
	for _, sp := range sn.SectionSpans() {
		if sp.Kind == "column" {
			sections++
		}
	}
	for range 2 {
		if err := sn.FaultAll(); err != nil {
			t.Fatal(err)
		}
		if n := columnReads(sn); n != sections {
			t.Fatalf("after FaultAll %d column sections were checksummed, the file has %d", n, sections)
		}
	}
}

// TestReplLazyDrivesFaulting runs a scripted REPL session against a mapped
// database: a session restricted to one column never touches the others,
// the default render (every column) faults the rest in, and an aggregating
// view faults everything before it is built.
func TestReplLazyDrivesFaulting(t *testing.T) {
	path, _ := v3FixtureFile(t)
	sn := mappedSnapshot(t, path)
	defer sn.Close()
	s := NewSession(sn)
	defer s.Close()
	for _, line := range []string{"cols CYCLES", "ls", "expandall", "sort CYCLES", "hot CYCLES"} {
		if _, err := Exec(s, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	one := columnReads(sn)
	if sn.Generation() != 1 {
		t.Fatalf("CYCLES-only REPL session faulted %d columns, want 1", sn.Generation())
	}
	for _, line := range []string{"cols all", "ls"} {
		if _, err := Exec(s, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	all := columnReads(sn)
	if all <= one || sn.Generation() != uint64(sn.BaseColumns()) {
		t.Fatalf("full-column render: %d sections checksummed (was %d), generation %d of %d columns",
			all, one, sn.Generation(), sn.BaseColumns())
	}

	// A second snapshot of the same file going straight to the Callers View.
	sn2 := mappedSnapshot(t, path)
	defer sn2.Close()
	s2 := NewSession(sn2)
	defer s2.Close()
	if _, err := Exec(s2, "view callers", io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := columnReads(sn2); n != all {
		t.Fatalf("callers view was built over %d checksummed column sections, want all %d", n, all)
	}
}
