package core

import (
	"testing"

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
