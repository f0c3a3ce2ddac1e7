package engine

import (
	"bytes"
	"io"
	"reflect"
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

// mergedFixture builds a merged multi-rank experiment whose summary columns
// live in the v2 overrides section — the shape a lazy open can skip.
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
		for n := range s.expanded {
			fresh.expanded[n] = true
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

// TestColumnFaulterLazySession fronts a lazily opened database with a
// session: only columns the scripted interaction touches are faulted, the
// faulter runs once per column, and the rendered values match an eager
// session byte for byte.
func TestColumnFaulterLazySession(t *testing.T) {
	e := mergedFixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	eager, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	db, err := expdb.OpenLazy(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(db.Experiment().Tree, nil)
	var faults []int
	s.SetColumnFaulter(func(id int) error {
		faults = append(faults, id)
		return db.NeedColumn(id)
	})

	// Sorting by the raw column touches nothing optional.
	raw := s.Tree().Reg.ByName("CYCLES")
	s.SetSort(core.SortSpec{MetricID: raw.ID})
	s.VisibleRows()
	s.VisibleRows()
	if n := db.SectionReads()["overrides"]; n != 0 {
		t.Fatalf("raw-column session decoded overrides %d times", n)
	}
	if len(faults) != 1 {
		t.Fatalf("faulter ran %d times for one column, want 1", len(faults))
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
	if n := db.SectionReads()["overrides"]; n != 1 {
		t.Fatalf("summary render decoded overrides %d times, want 1", n)
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
}

// TestReplLazyDrivesFaulting runs a scripted REPL session against a lazy
// database: the default render shows every column (faulting the overrides
// in), but a session restricted to raw columns never touches them.
func TestReplLazyDrivesFaulting(t *testing.T) {
	e := mergedFixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := expdb.OpenLazy(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestSession(db.Experiment().Tree, nil)
	s.SetColumnFaulter(db.NeedColumn)
	for _, line := range []string{"cols CYCLES", "ls", "expandall", "sort CYCLES", "hot CYCLES"} {
		if _, err := Exec(s, line, io.Discard); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if n := db.SectionReads()["overrides"]; n != 0 {
		t.Fatalf("raw-only REPL session decoded overrides %d times", n)
	}
	if _, err := Exec(s, "cols all", io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(s, "ls", io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := db.SectionReads()["overrides"]; n != 1 {
		t.Fatalf("full-column render decoded overrides %d times, want 1", n)
	}
}
