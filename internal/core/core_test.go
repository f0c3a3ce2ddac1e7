package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metric"
)

func TestTreeBasics(t *testing.T) {
	tree := NewTree("x", nil)
	if tree.NumNodes() != 0 {
		t.Fatal("empty tree has nodes")
	}
	n := tree.AddPath(
		Key{Kind: KindFrame, Name: Sym("main")},
		Key{Kind: KindLoop, File: Sym("a.c"), Line: 3},
		Key{Kind: KindStmt, File: Sym("a.c"), Line: 4},
	)
	if tree.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", tree.NumNodes())
	}
	// AddPath is idempotent.
	n2 := tree.AddPath(
		Key{Kind: KindFrame, Name: Sym("main")},
		Key{Kind: KindLoop, File: Sym("a.c"), Line: 3},
		Key{Kind: KindStmt, File: Sym("a.c"), Line: 4},
	)
	if n != n2 {
		t.Fatal("AddPath created duplicates")
	}
	if got := len(n.Path()); got != 3 {
		t.Fatalf("path length = %d, want 3", got)
	}
	if n.EnclosingFrame() == nil || n.EnclosingFrame().Name.String() != "main" {
		t.Fatal("EnclosingFrame wrong")
	}
}

func TestLabels(t *testing.T) {
	cases := []struct {
		n    Node
		want string
	}{
		{Node{Key: Key{Kind: KindFrame, Name: Sym("foo")}}, "foo"},
		{Node{Key: Key{Kind: KindFrame}}, "<unknown>"},
		{Node{Key: Key{Kind: KindLoop, File: Sym("dir/a.c"), Line: 5}}, "loop at a.c: 5"},
		{Node{Key: Key{Kind: KindStmt, File: Sym("a.c"), Line: 7}}, "a.c: 7"},
		{Node{Key: Key{Kind: KindStmt, Line: 7}}, "??: 7"},
		{Node{Key: Key{Kind: KindAlien, Name: Sym("inl")}}, "inlined inl"},
		{Node{Key: Key{Kind: KindLM, Name: Sym("app.exe")}}, "app.exe"},
		{Node{Key: Key{Kind: KindFile}}, "<unknown file>"},
		{Node{Key: Key{Kind: KindRoot}}, "<root>"},
	}
	for _, c := range cases {
		if got := c.n.Label(); got != c.want {
			t.Errorf("Label(%v) = %q, want %q", c.n.Kind, got, c.want)
		}
		if got := string(c.n.AppendLabel([]byte("x "))); got != "x "+c.want {
			t.Errorf("AppendLabel(%v) = %q, want %q", c.n.Kind, got, "x "+c.want)
		}
	}
}

func TestFindPathAndFindFirst(t *testing.T) {
	tree := Fig1Tree()
	if tree.FindPath("m", "f", "g") == nil {
		t.Fatal("FindPath m/f/g failed")
	}
	if tree.FindPath("m", "nosuch") != nil {
		t.Fatal("FindPath found a ghost")
	}
	h := tree.FindFirst("h")
	if h == nil || h.Kind != KindFrame {
		t.Fatal("FindFirst h failed")
	}
	if tree.FindFirst("zzz") != nil {
		t.Fatal("FindFirst found a ghost")
	}
}

func TestComputeMetricsStmtOnly(t *testing.T) {
	tree := NewTree("x", nil)
	main := tree.AddPath(Key{Kind: KindFrame, Name: Sym("main")})
	s := main.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: 2}, true)
	s.Base.Add(0, 5)
	tree.ComputeMetrics()
	if main.Incl.Get(0) != 5 || main.Excl.Get(0) != 5 {
		t.Fatalf("main = (%g,%g), want (5,5)", main.Incl.Get(0), main.Excl.Get(0))
	}
	if s.Incl.Get(0) != 5 || s.Excl.Get(0) != 5 {
		t.Fatal("stmt metrics wrong")
	}
}

func TestComputeMetricsLoopExclusiveExcludesNestedLoops(t *testing.T) {
	tree := NewTree("x", nil)
	main := tree.AddPath(Key{Kind: KindFrame, Name: Sym("main")})
	l1 := main.Child(Key{Kind: KindLoop, File: Sym("a.c"), Line: 2}, true)
	s1 := l1.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: 3}, true)
	s1.Base.Add(0, 2)
	l2 := l1.Child(Key{Kind: KindLoop, File: Sym("a.c"), Line: 4}, true)
	s2 := l2.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: 5}, true)
	s2.Base.Add(0, 7)
	tree.ComputeMetrics()
	// l1's exclusive: its own direct statement (2) but not l2's 7.
	if got := l1.Excl.Get(0); got != 2 {
		t.Fatalf("l1 excl = %g, want 2", got)
	}
	if got := l1.Incl.Get(0); got != 9 {
		t.Fatalf("l1 incl = %g, want 9", got)
	}
	// The frame's exclusive spans the whole loop nest (rule 1).
	if got := main.Excl.Get(0); got != 9 {
		t.Fatalf("main excl = %g, want 9", got)
	}
}

func TestComputeMetricsFrameBoundary(t *testing.T) {
	tree := NewTree("x", nil)
	main := tree.AddPath(Key{Kind: KindFrame, Name: Sym("main")})
	s := main.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: 2}, true)
	s.Base.Add(0, 1)
	callee := main.Child(Key{Kind: KindFrame, Name: Sym("leaf")}, true)
	cs := callee.Child(Key{Kind: KindStmt, File: Sym("b.c"), Line: 9}, true)
	cs.Base.Add(0, 10)
	tree.ComputeMetrics()
	if got := main.Excl.Get(0); got != 1 {
		t.Fatalf("main excl = %g, want 1 (callee cost must not leak)", got)
	}
	if got := main.Incl.Get(0); got != 11 {
		t.Fatalf("main incl = %g, want 11", got)
	}
}

// TestComputeMetricsEmptyBaseColumn: in a registry that interleaves raw and
// computed columns, as a diff union's does, a computed column below the
// last raw one has no base slab. Recomputation materializes none, leaves
// the presented values its owner wrote as they are, and leaves every other
// cell bitwise equal to a per-node Equations 1-2 recursion.
func TestComputeMetricsEmptyBaseColumn(t *testing.T) {
	reg := metric.NewRegistry()
	must := func(_ *metric.Desc, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.AddRaw("a", "s", 1))
	must(reg.AddComputed("a'", "s"))
	must(reg.AddRaw("b", "s", 1))
	must(reg.AddComputed("b'", "s"))
	src, _ := randomCCTShape(11, 300, cctShape{cols: 2})
	tree := NewTree("mixed", reg)
	var copyTree func(from, to *Node)
	copyTree = func(from, to *Node) {
		for _, c := range from.Children {
			d := to.AppendChild(c.Key)
			d.Base.Add(0, c.Base.Get(0))
			d.Base.Add(2, c.Base.Get(1))
			copyTree(c, d)
		}
	}
	copyTree(src.Root, tree.Root)
	written := tree.Root.Children[0]
	written.Incl.Set(1, 9)
	written.Excl.Set(1, 9)

	tree.ComputeMetrics()
	st := tree.MetricStore()
	if col := st.ColRead(metric.PlaneBase, 1); col != nil {
		t.Fatalf("computed column's base slab materialized (%d rows)", len(col))
	}

	ncols := reg.Len()
	var visit func(n *Node) (incl, frameLocal []float64)
	visit = func(n *Node) ([]float64, []float64) {
		incl, fl := make([]float64, ncols), make([]float64, ncols)
		for id := range ncols {
			incl[id], fl[id] = n.Base.Get(id), n.Base.Get(id)
		}
		for _, c := range n.Children {
			ci, cf := visit(c)
			for id := range ncols {
				incl[id] += ci[id]
				if c.Kind != KindFrame {
					fl[id] += cf[id]
				}
			}
		}
		excl := make([]float64, ncols)
		for id := range ncols {
			switch n.Kind {
			case KindFrame:
				excl[id] = fl[id]
			case KindLoop, KindAlien:
				excl[id] = n.Base.Get(id)
				for _, c := range n.Children {
					if c.Kind == KindStmt {
						excl[id] += c.Base.Get(id)
					}
				}
			case KindRoot:
			default:
				excl[id] = n.Base.Get(id)
			}
			wantIncl, wantExcl := incl[id], excl[id]
			if n == written && id == 1 {
				wantIncl, wantExcl = 9, 9 // the computed cell survives
			}
			for _, cell := range []struct {
				plane     string
				got, want float64
			}{{"incl", n.Incl.Get(id), wantIncl}, {"excl", n.Excl.Get(id), wantExcl}} {
				if math.Float64bits(cell.got) != math.Float64bits(cell.want) {
					t.Fatalf("%s %s col %d = %v, reference %v", n.Label(), cell.plane, id, cell.got, cell.want)
				}
			}
		}
		return incl, fl
	}
	visit(tree.Root)
}

func TestSparseZeroScopes(t *testing.T) {
	// A scope whose metrics are all zero keeps empty vectors — the
	// representation behind "any metric table cell where data is zero is
	// left blank".
	tree := Fig1Tree()
	m := tree.FindFirst("m")
	if m.Excl.Len() != 0 {
		t.Fatalf("m's zero exclusive is materialized: %v", m.Excl.String())
	}
}

func TestHotPathFig1(t *testing.T) {
	tree := Fig1Tree()
	path := HotPath(tree.Root, 0, 0.5)
	// root(10) -> m(10) -> f(7) -> g1(6) -> g2(5) -> h(4) -> l1(4) ->
	// l2(4) -> stmt(4): every child holds >= 50% of its parent.
	wantLabels := []string{"<root>", "m", "f", "g", "g", "h", "loop at file2.c: 8", "loop at file2.c: 9", "file2.c: 9"}
	if len(path) != len(wantLabels) {
		t.Fatalf("path = %v, want %v", labels(path), wantLabels)
	}
	for i, w := range wantLabels {
		if path[i].Label() != w {
			t.Fatalf("path[%d] = %q, want %q", i, path[i].Label(), w)
		}
	}
}

func TestHotPathThreshold(t *testing.T) {
	tree := Fig1Tree()
	// With t = 80%, the descent stops at f (g1 has 6/7 = 86% but g2 has
	// 5/6 = 83%, h has 4/5 = 80%...). Walk manually: m->f requires 7/10
	// = 70% >= 80%? No. So path ends at m.
	path := HotPath(tree.Root, 0, 0.8)
	if got := path[len(path)-1].Label(); got != "m" {
		t.Fatalf("hot path with t=0.8 ends at %q, want m", got)
	}
	// t <= 0 falls back to the default threshold.
	def := HotPath(tree.Root, 0, 0)
	if len(def) < 3 {
		t.Fatalf("default threshold path too short: %v", labels(def))
	}
}

func TestHotPathFromSubtree(t *testing.T) {
	tree := Fig1Tree()
	h := tree.FindFirst("h")
	path := HotPath(h, 0, 0.5)
	if len(path) != 4 { // h -> l1 -> l2 -> stmt
		t.Fatalf("path from h = %v", labels(path))
	}
}

func TestHotPathNilAndLeaf(t *testing.T) {
	if HotPath(nil, 0, 0.5) != nil {
		t.Fatal("nil start should give nil path")
	}
	leaf := &Node{Key: Key{Kind: KindStmt, File: Sym("a.c"), Line: 1}}
	p := HotPath(leaf, 0, 0.5)
	if len(p) != 1 || p[0] != leaf {
		t.Fatal("leaf hot path should be itself")
	}
}

func TestHotPathZeroMetric(t *testing.T) {
	// A subtree with no values of the metric: path stays at the start.
	tree := Fig1Tree()
	m := tree.FindFirst("m")
	p := HotPath(m, 7, 0.5) // column 7 doesn't exist
	if len(p) != 1 {
		t.Fatalf("path over absent metric = %v", labels(p))
	}
}

func TestFlatten(t *testing.T) {
	tree := Fig1Tree()
	v := BuildFlatView(tree)
	lms := v.Roots
	files := Flatten(lms)
	if len(files) != 2 {
		t.Fatalf("flatten(modules) = %v", labels(files))
	}
	procs := Flatten(files)
	if len(procs) != 4 {
		t.Fatalf("flatten(files) = %v", labels(procs))
	}
	// One more level: loops, call sites and statements of all procs,
	// enabling cross-routine loop comparison (Section III-C).
	inner := Flatten(procs)
	var loops int
	for _, s := range inner {
		if s.Kind == KindLoop {
			loops++
		}
	}
	if loops != 1 { // l1 (l2 is nested inside l1)
		t.Fatalf("loops after flatten = %d, want 1", loops)
	}
	// Leaves survive flattening.
	leaf := &Node{Key: Key{Kind: KindStmt}}
	out := Flatten([]*Node{leaf})
	if len(out) != 1 || out[0] != leaf {
		t.Fatal("flatten dropped a leaf")
	}
	if got := FlattenN(lms, 2); len(got) != 4 {
		t.Fatalf("FlattenN(2) = %v", labels(got))
	}
}

func TestSortScopes(t *testing.T) {
	tree := Fig1Tree()
	m := tree.FindFirst("m")
	kids := append([]*Node(nil), m.Children...)
	SortScopes(kids, SortSpec{MetricID: 0})
	if kids[0].Label() != "f" || kids[1].Label() != "g" {
		t.Fatalf("descending sort = %v", labels(kids))
	}
	SortScopes(kids, SortSpec{MetricID: 0, Ascending: true})
	if kids[0].Label() != "g" {
		t.Fatalf("ascending sort = %v", labels(kids))
	}
	// Exclusive sort: g3 (3) above f (1).
	SortScopes(kids, SortSpec{MetricID: 0, Exclusive: true})
	if kids[0].Label() != "g" {
		t.Fatalf("exclusive sort = %v", labels(kids))
	}
}

func TestSortByLabel(t *testing.T) {
	tree := Fig1Tree()
	m := tree.FindFirst("m")
	kids := append([]*Node(nil), m.Children...)
	SortScopes(kids, SortSpec{ByLabel: true})
	if kids[0].Label() != "f" || kids[1].Label() != "g" {
		t.Fatalf("label sort = %v", labels(kids))
	}
}

func TestSortScopesDeterministicTies(t *testing.T) {
	tree := NewTree("ties", nil)
	main := tree.AddPath(Key{Kind: KindFrame, Name: Sym("main")})
	for _, name := range []string{"zeta", "alpha", "mid"} {
		c := main.Child(Key{Kind: KindFrame, Name: Sym(name)}, true)
		s := c.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: 1}, true)
		s.Base.Add(0, 5)
	}
	tree.ComputeMetrics()
	SortScopes(main.Children, SortSpec{MetricID: 0})
	got := labels(main.Children)
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-broken order = %v, want %v", got, want)
		}
	}
}

func TestCallersViewLazy(t *testing.T) {
	tree := Fig1Tree()
	v := BuildCallersView(tree)
	var g *Node
	for _, r := range v.Roots {
		if r.Name.String() == "g" {
			g = r
		}
	}
	if g == nil {
		t.Fatal("no g root")
	}
	// Root rows exist without expansion; children do not.
	if v.Expanded(g) || len(g.Children) != 0 {
		t.Fatal("callers view was expanded eagerly")
	}
	if g.Incl.Get(0) != 9 {
		t.Fatalf("unexpanded root incl = %g, want 9", g.Incl.Get(0))
	}
	v.Expand(g)
	if !v.Expanded(g) || len(g.Children) != 3 {
		t.Fatalf("expansion failed: %v", labels(g.Children))
	}
	// Repeated expansion must not double the costs.
	v.Expand(g)
	if len(g.Children) != 3 {
		t.Fatal("double expansion duplicated children")
	}
	for _, c := range g.Children {
		if c.Name.String() == "f" && c.Incl.Get(0) != 6 {
			t.Fatalf("double expansion doubled costs: %g", c.Incl.Get(0))
		}
	}
}

func TestCallersViewDeepRecursionNoDoubleCount(t *testing.T) {
	// m -> g -> g -> g: the "called from g" row must show only the
	// second instance's cost (the third is nested within it), and the
	// "called from g <- g" row only the third's.
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("cost", "samples", 1); err != nil {
		t.Fatal(err)
	}
	tree := NewTree("deep", reg)
	mk := func(parent *Node, name string) *Node {
		return parent.Child(Key{Kind: KindFrame, Name: Sym(name), File: Sym("a.c")}, true)
	}
	addWork := func(fr *Node, line int, v float64) {
		s := fr.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: line}, true)
		s.Base.Add(0, v)
	}
	m := mk(tree.Root, "m")
	gA := mk(m, "g")
	addWork(gA, 10, 1)
	gB := mk(gA, "g")
	addWork(gB, 11, 2)
	gC := mk(gB, "g")
	addWork(gC, 12, 4)
	tree.ComputeMetrics()

	v := BuildCallersView(tree)
	v.ExpandAll()
	var g *Node
	for _, r := range v.Roots {
		if r.Name.String() == "g" {
			g = r
		}
	}
	// Root: only gA is exposed -> (7, 1).
	if got := costs(g); got != (ie{7, 1}) {
		t.Fatalf("g root = %+v, want {7 1}", got)
	}
	fromG := child(t, g, procNamed("g"), "g<-g")
	if got := costs(fromG); got != (ie{6, 2}) {
		t.Fatalf("g<-g = %+v, want {6 2} (gB only)", got)
	}
	fromGG := child(t, fromG, procNamed("g"), "g<-g<-g")
	if got := costs(fromGG); got != (ie{4, 4}) {
		t.Fatalf("g<-g<-g = %+v, want {4 4} (gC only)", got)
	}
	// And m appears under g<-g<-g<-m etc. with gC's cost plus... each
	// instance contributes along its own path: path of gA is [m], gB is
	// [g,m], gC is [g,g,m].
	fromM := child(t, g, procNamed("m"), "g<-m")
	if got := costs(fromM); got != (ie{7, 1}) {
		t.Fatalf("g<-m = %+v, want {7 1} (gA)", got)
	}
}

func TestDerivedMetricsOnTree(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("cycles", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddRaw("flops", "ops", 1); err != nil {
		t.Fatal(err)
	}
	// Floating-point waste (Section V-D): cycles*peak - flops, peak = 4.
	if _, err := reg.AddDerived("fpwaste", "$0*4 - $1"); err != nil {
		t.Fatal(err)
	}
	tree := NewTree("d", reg)
	main := tree.AddPath(Key{Kind: KindFrame, Name: Sym("main")})
	s := main.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: 2}, true)
	s.Base.Add(0, 100) // cycles
	s.Base.Add(1, 150) // flops
	tree.ComputeMetrics()
	if got := main.Incl.Get(2); got != 250 {
		t.Fatalf("waste incl = %g, want 250", got)
	}
	if got := s.Excl.Get(2); got != 250 {
		t.Fatalf("waste excl = %g, want 250", got)
	}
	// Derived metrics drive hot paths and sorting like any other column.
	p := HotPath(tree.Root, 2, 0.5)
	if p[len(p)-1] != s {
		t.Fatalf("hot path over derived metric = %v", labels(p))
	}
}

// TestViewRowsEvaluateFormulas: a Flat or Callers View row shows a derived
// column as its formula over the row's own cells. f runs from two call
// sites, costing 3 and 4, so its rows show 7² = 49, not 3² + 4² = 25.
func TestViewRowsEvaluateFormulas(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddDerived("sq", "$0*$0"); err != nil {
		t.Fatal(err)
	}
	tree := NewTree("d", reg)
	main := tree.AddPath(Key{Kind: KindFrame, Name: Sym("main"), File: Sym("a.c")})
	for site, cost := range []float64{3, 4} {
		f := main.Child(Key{Kind: KindFrame, Name: Sym("f"), File: Sym("a.c"), Line: 10, ID: uint64(site)}, true)
		f.CallFile, f.CallLine = Sym("a.c"), site+1
		f.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: 11}, true).Base.Add(0, cost)
	}
	tree.ComputeMetrics()
	lm := BuildFlatView(tree).Roots[0]
	file := lm.Children[0]
	var f *Node
	for _, p := range file.Children {
		if p.Name == Sym("f") {
			f = p
		}
	}
	cv := BuildCallersView(tree)
	if err := cv.ExpandAll(); err != nil {
		t.Fatal(err)
	}
	callerRoot := cv.Roots[0] // f sorts before main
	rows := []*Node{lm, file, f, f.Children[0], callerRoot, callerRoot.Children[0]}
	for _, row := range rows {
		if got := row.Incl.Get(1); got != 49 {
			t.Errorf("%s: sq (I) = %g, want 49", row.Label(), got)
		}
		if got := row.Excl.Get(1); got != 49 {
			t.Errorf("%s: sq (E) = %g, want 49", row.Label(), got)
		}
	}
}

// Property: for any random CCT, the root's inclusive cost equals the sum of
// all Base values (conservation), and every frame's inclusive is at least
// its exclusive.
func TestMetricConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree, total := randomCCT(seed, 200)
		tree.ComputeMetrics()
		if tree.Total(0) != total {
			return false
		}
		ok := true
		Walk(tree.Root, func(n *Node) bool {
			if n.Incl.Get(0) < n.Excl.Get(0)-1e-9 {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: flat-view and callers-view aggregation conserve exclusive
// costs at statement level (statements' exclusives are disjoint samples).
func TestFlatStmtConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree, total := randomCCT(seed, 150)
		tree.ComputeMetrics()
		v := BuildFlatView(tree)
		var stmtSum float64
		for _, lm := range v.Roots {
			Walk(lm, func(n *Node) bool {
				if n.Kind == KindStmt {
					stmtSum += n.Excl.Get(0)
				}
				return true
			})
		}
		return stmtSum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every callers-view root row's inclusive cost never exceeds the
// program total, even under recursion (exposed aggregation).
func TestCallersRootBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree, total := randomCCT(seed, 150)
		tree.ComputeMetrics()
		v := BuildCallersView(tree)
		for _, r := range v.Roots {
			if r.Incl.Get(0) > total+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomCCT builds a random calling context tree with recursion and loops;
// returns the tree and the total Base cost.
func randomCCT(seed int64, size int) (*Tree, float64) {
	return randomCCTShape(seed, size, cctShape{cols: 1})
}

// cctShape says what randomCCTShape puts into a tree beside the frames,
// loops, inlined bodies and statements every tree gets.
type cctShape struct {
	entries  int  // entry frames, each over a copy of the same subtree (0 means 1)
	cols     int  // metric columns; column 0 is set at every statement
	zeroCol  bool // one more column, registered and never written
	negative bool // costs of either sign, as a diff tree has
}

// randomCCTShape builds a random tree over five procedures in three files
// and two modules: self-recursion at least three deep through one call site
// ("rec"), mutual recursion (any procedure calls any other), nested loops,
// and inlined code, at most 40 scopes deep. size is the number of generator
// steps per entry frame. It returns the finished tree and the total Base
// cost of column 0.
func randomCCTShape(seed int64, size int, sh cctShape) (*Tree, float64) {
	var rng *rand.Rand
	reg := metric.NewRegistry()
	ncols := sh.cols
	if sh.zeroCol {
		ncols++
	}
	for c := 0; c < ncols; c++ {
		name := "cost"
		if c > 0 {
			name = fmt.Sprintf("cost%d", c)
		}
		if _, err := reg.AddRaw(name, "samples", 1); err != nil {
			panic(err)
		}
	}
	tree := NewTree("rnd", reg)
	procs := []string{"main", "a", "b", "c", "rec"}
	var total float64

	frame := func(parent *Node, name string) *Node {
		fr := parent.Child(Key{Kind: KindFrame, Name: Sym(name), File: Sym(name + ".c"), ID: uint64(rng.Intn(4))}, true)
		fr.CallLine = rng.Intn(9) + 1
		fr.CallFile = Sym("m.c")
		fr.NoSource = rng.Intn(8) == 0 // the flat rows keep the last writer's
		if name == "b" || name == "c" {
			fr.Mod = Sym("lib.so")
		}
		return fr
	}
	for e := 0; e < max(1, sh.entries); e++ {
		rng = rand.New(rand.NewSource(seed)) // every entry frame gets the same subtree
		cur := tree.Root.Child(Key{Kind: KindFrame, Name: Sym("main"), File: Sym("m.c"), ID: uint64(e)}, true)
		stack := []*Node{cur}
		for i := 0; i < size; i++ {
			top := stack[len(stack)-1]
			op := rng.Intn(7)
			if len(stack) > 40 {
				op = 4
			}
			switch op {
			case 0: // push a frame
				stack = append(stack, frame(top, procs[rng.Intn(len(procs))]))
			case 1: // push a loop
				stack = append(stack, top.Child(Key{Kind: KindLoop, File: Sym("m.c"), Line: rng.Intn(20) + 1}, true))
			case 2, 3: // sample at a statement
				k := Key{Kind: KindStmt, File: Sym("m.c"), Line: rng.Intn(40) + 1}
				s := top.Child(k, true)
				for c := 0; c < sh.cols; c++ {
					if c > 0 && rng.Intn(2) == 0 {
						continue
					}
					v := float64(rng.Intn(5) + 1)
					if sh.negative && rng.Intn(3) == 0 {
						v = -v / 3
					}
					s.Base.Add(c, v)
					if c == 0 {
						total += v
					}
				}
			case 4: // pop
				if len(stack) > 1 {
					stack = stack[:len(stack)-1]
				}
			case 5: // push inlined code, sometimes with no source
				al := top.Child(Key{Kind: KindAlien, Name: Sym("inl"), File: Sym("inl.h"), Line: rng.Intn(3) + 1}, true)
				al.CallLine, al.CallFile = rng.Intn(9)+1, Sym("m.c")
				al.NoSource = rng.Intn(4) == 0
				stack = append(stack, al)
			case 6: // recurse three deep through one call site
				for d := 0; d < 3; d++ {
					fr := stack[len(stack)-1].Child(Key{Kind: KindFrame, Name: Sym("rec"), File: Sym("rec.c"), ID: 7}, true)
					fr.CallLine, fr.CallFile = 5, Sym("rec.c")
					stack = append(stack, fr)
				}
			}
		}
	}
	tree.ComputeMetrics()
	return tree, total
}

func TestWalkPrunes(t *testing.T) {
	tree := Fig1Tree()
	var visited int
	Walk(tree.Root, func(n *Node) bool {
		visited++
		return n.Kind != KindFrame || n.Name.String() != "f" // prune below f
	})
	total := tree.NumNodes() + 1
	if visited >= total {
		t.Fatalf("prune ineffective: visited %d of %d", visited, total)
	}
}
