package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/metric"
)

// oracleBuildFlatView is the closure-and-map BuildFlatView this package
// shipped before the sweep in flat.go replaced it, kept verbatim as the
// reference of the differential tests below and in flat_workloads_test.go:
// a per-scope `active` map, three keyed Child lookups per frame, a context
// path copied per scope, AddView cell by cell. It folds into internal/oracle
// when ROADMAP item 1 lands. It panics on a loop, inlined or statement scope
// that no frame encloses (the bug the sweep fixes), so the differential
// inputs never have one.
func oracleBuildFlatView(t *Tree) *FlatView {
	v := &FlatView{Reg: t.Reg}
	// The view is built by this one goroutine; a private arena with its own
	// metric store packs its scopes into slabs like the CCT's, keeping the
	// no-cross-tree-aliasing invariant.
	arena := &nodeArena{store: metric.NewStore()}
	root := arena.alloc()
	root.Key = Key{Kind: KindRoot}
	root.arena = arena

	// active counts, per flat scope, how many CCT ancestors on the
	// current walk path map into that scope's flat subtree.
	active := map[*Node]int{}

	// flatHome materializes the (LM, file, proc) chain for a frame and
	// returns all three, outermost first.
	flatHome := func(fr *Node) []*Node {
		lm := root.Child(Key{Kind: KindLM, Name: fr.Mod}, true)
		file := lm.Child(Key{Kind: KindFile, Name: fr.File}, true)
		file.NoSource = fr.File == 0
		proc := file.Child(Key{Kind: KindProc, Name: fr.Name, File: fr.File, Line: fr.Line}, true)
		proc.NoSource = fr.NoSource
		return []*Node{lm, file, proc}
	}

	// walk carries the flat path of the current CCT node's *context*:
	// for children of a frame that is the frame's home chain; for
	// children of loops/aliens it extends with the mapped scope.
	var walk func(n *Node, ctxPath []*Node)
	walk = func(n *Node, ctxPath []*Node) {
		var touched []*Node
		childCtx := ctxPath

		if n.Kind != KindRoot {
			var fp []*Node
			switch n.Kind {
			case KindFrame:
				fp = flatHome(n)
			case KindLoop, KindAlien, KindStmt:
				parent := ctxPath[len(ctxPath)-1]
				var k Key
				switch n.Kind {
				case KindLoop:
					k = Key{Kind: KindLoop, File: n.File, Line: n.Line, ID: n.ID}
				case KindAlien:
					k = Key{Kind: KindAlien, Name: n.Name, File: n.File, Line: n.Line, ID: n.ID}
				case KindStmt:
					k = Key{Kind: KindStmt, File: n.File, Line: n.Line}
				}
				c := parent.Child(k, true)
				c.NoSource = n.NoSource
				if c.CallLine == 0 {
					c.CallLine = n.CallLine
					c.CallFile = n.CallFile
				}
				fp = append(append([]*Node(nil), ctxPath...), c)
			default:
				fp = ctxPath
			}

			for _, s := range fp {
				if active[s] == 0 {
					s.Incl.AddView(&n.Incl)
				}
			}
			self := fp[len(fp)-1]
			switch n.Kind {
			case KindFrame:
				if active[self] == 0 {
					self.Excl.AddView(&n.Excl)
				}
			case KindLoop, KindAlien, KindStmt:
				self.Excl.AddView(&n.Excl)
			}
			touched = append(touched, fp...)

			// Dynamic call-site row in the caller's static context.
			if n.Kind == KindFrame && len(ctxPath) > 0 {
				ctx := ctxPath[len(ctxPath)-1]
				cs := ctx.Child(Key{Kind: KindCallSite, Name: n.Name, File: n.CallFile, Line: n.CallLine, ID: n.ID}, true)
				cs.NoSource = n.NoSource
				if active[cs] == 0 {
					cs.Incl.AddView(&n.Incl)
					for id, x := range oracleStaticExcl(n) {
						cs.Excl.Add(id, x)
					}
				}
				touched = append(touched, cs)
			}

			for _, s := range touched {
				active[s]++
			}
			childCtx = fp
		}

		for _, c := range n.Children {
			walk(c, childCtx)
		}

		for _, s := range touched {
			active[s]--
		}
	}
	walk(t.Root, nil)

	// Containers (files, modules) report the sum of their children's
	// exclusive costs (file2 = g's 4 + h's 4 = 8 in Figure 2c).
	var fixContainers func(s *Node)
	fixContainers = func(s *Node) {
		for _, c := range s.Children {
			fixContainers(c)
		}
		if s.Kind == KindFile || s.Kind == KindLM {
			s.Excl.Reset()
			for _, c := range s.Children {
				s.Excl.AddView(&c.Excl)
			}
		}
	}
	fixContainers(root)

	v.Roots = root.Children
	return v
}

// oracleStaticExcl is the deleted core.StaticExcl: a frame's exclusive cost
// under the static rule, the sum of Base over its direct statement children.
// The result is indexed by column.
func oracleStaticExcl(frame *Node) []float64 {
	var ex []float64
	add := func(id int, x float64) {
		for id >= len(ex) {
			ex = append(ex, 0)
		}
		ex[id] += x
	}
	frame.Base.Range(add)
	for _, c := range frame.Children {
		if c.Kind == KindStmt {
			c.Base.Range(add)
		}
	}
	return ex
}

// sameFlatView reports the first difference between two flat views; see
// sameScopes.
func sameFlatView(got, want *FlatView) error {
	return sameScopes(got.Reg, got.Roots, want.Roots)
}

// sameScopes reports the first difference between two views' root rows,
// scope for scope in child order: key, flags, call site, store row, and the
// bits of every column of both planes.
func sameScopes(reg *metric.Registry, gotRoots, wantRoots []*Node) error {
	cols := reg.Len()
	for _, roots := range [][]*Node{gotRoots, wantRoots} {
		for _, r := range roots {
			if st := r.Incl.Store(); st != nil {
				cols = max(cols, st.NumCols(metric.PlaneIncl), st.NumCols(metric.PlaneExcl))
			}
		}
	}
	var walk func(path string, g, w []*Node) error
	walk = func(path string, g, w []*Node) error {
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d children, want %d", path, len(g), len(w))
		}
		for i := range g {
			x, y := g[i], w[i]
			at := fmt.Sprintf("%s/%s[%d]", path, y.Label(), i)
			if x.Key != y.Key || x.NoSource != y.NoSource || x.CallLine != y.CallLine || x.CallFile != y.CallFile {
				return fmt.Errorf("%s: scope {%+v nosrc=%v call=%v:%d}, want {%+v nosrc=%v call=%v:%d}", at,
					x.Key, x.NoSource, x.CallFile, x.CallLine, y.Key, y.NoSource, y.CallFile, y.CallLine)
			}
			if x.Incl.Row() != y.Incl.Row() || x.Excl.Row() != y.Excl.Row() {
				return fmt.Errorf("%s: store row %d, want %d", at, x.Incl.Row(), y.Incl.Row())
			}
			for c := 0; c < cols; c++ {
				if a, b := x.Incl.Get(c), y.Incl.Get(c); math.Float64bits(a) != math.Float64bits(b) {
					return fmt.Errorf("%s: inclusive column %d = %v (%#x), want %v (%#x)", at, c, a, math.Float64bits(a), b, math.Float64bits(b))
				}
				if a, b := x.Excl.Get(c), y.Excl.Get(c); math.Float64bits(a) != math.Float64bits(b) {
					return fmt.Errorf("%s: exclusive column %d = %v (%#x), want %v (%#x)", at, c, a, math.Float64bits(a), b, math.Float64bits(b))
				}
			}
			if err := walk(at, x.Children, y.Children); err != nil {
				return err
			}
		}
		return nil
	}
	return walk("", gotRoots, wantRoots)
}

// TestFlatViewMatchesOracle is the differential test of the sweep: the same
// view as the reference implementation, bit for bit, on Figure 2's tree and
// on seeded random trees of every shape the generator knows.
func TestFlatViewMatchesOracle(t *testing.T) {
	if err := sameFlatView(BuildFlatView(Fig1Tree()), oracleBuildFlatView(Fig1Tree())); err != nil {
		t.Errorf("Figure 2: %v", err)
	}
	shapes := map[string]cctShape{
		"one column":  {cols: 1},
		"wide":        {cols: 4},
		"zero column": {cols: 3, zeroCol: true},
		"diff tree":   {cols: 3, negative: true},
		"everything":  {cols: 4, zeroCol: true, negative: true},
	}
	for name, sh := range shapes {
		for seed := int64(1); seed <= 25; seed++ {
			tree, _ := randomCCTShape(seed, 40*int(seed), sh)
			if err := sameFlatView(BuildFlatView(tree), oracleBuildFlatView(tree)); err != nil {
				t.Errorf("%s, seed %d: %v", name, seed, err)
				break
			}
		}
	}
}

// TestFlatViewRandomTreesCoverTheCases keeps the generator honest: the
// differential test means little if its trees never recurse three deep or
// never nest a loop.
func TestFlatViewRandomTreesCoverTheCases(t *testing.T) {
	tree, _ := randomCCTShape(3, 600, cctShape{cols: 2, negative: true})
	var deepest, aliens, nested, negative int
	mods := map[string]bool{}
	var walk func(n *Node, recDepth, loopDepth int)
	walk = func(n *Node, recDepth, loopDepth int) {
		switch {
		case n.Kind == KindFrame && n.Name.String() == "rec":
			recDepth++
			deepest = max(deepest, recDepth)
		case n.Kind == KindLoop:
			if loopDepth++; loopDepth > 1 {
				nested++
			}
		case n.Kind == KindAlien:
			aliens++
		}
		if n.Kind == KindFrame {
			mods[n.Mod.String()] = true
			loopDepth = 0
		}
		if n.Base.Get(0) < 0 {
			negative++
		}
		for _, c := range n.Children {
			walk(c, recDepth, loopDepth)
		}
	}
	walk(tree.Root, 0, 0)
	if deepest < 3 || aliens == 0 || nested == 0 || negative == 0 || len(mods) < 2 {
		t.Fatalf("generator lost a case: recursion depth %d, %d inlined, %d nested loops, %d negative costs, %d modules",
			deepest, aliens, nested, negative, len(mods))
	}
}

// TestFlatViewConcurrentBuilds builds the view from 8 goroutines over one
// shared tree (run under -race): the builder keeps its scratch to itself.
func TestFlatViewConcurrentBuilds(t *testing.T) {
	tree, _ := randomCCTShape(11, 2000, cctShape{cols: 3})
	want := oracleBuildFlatView(tree)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = sameFlatView(BuildFlatView(tree), want)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestFlatViewFramelessScopes: a loop, inlined or statement scope that no
// frame encloses — the v3 reader accepts such a tree — maps under the home
// chain of a frame that names nothing, so all three views render and no cost
// is dropped. The reference implementation indexes an empty context path
// there, which is the crash this pins.
func TestFlatViewFramelessScopes(t *testing.T) {
	stmt := Key{Kind: KindStmt, File: Sym("a.c"), Line: 3}
	loop := Key{Kind: KindLoop, File: Sym("a.c"), Line: 2}
	main := Key{Kind: KindFrame, Name: Sym("main"), File: Sym("a.c"), Line: 1}
	for _, tc := range []struct {
		name  string
		paths [][]Key // the statement ending path i costs i+1
		// The <unknown> procedure row's inclusive cost and the module's.
		unknown, module float64
	}{
		{"loop and statement under the root", [][]Key{{loop, stmt}}, 1, 1},
		{"statement under the root", [][]Key{{stmt}}, 1, 1},
		{"beside, around and under real frames", [][]Key{{main, stmt}, {loop, stmt}, {loop, main, stmt}, {stmt}, {main, loop, stmt}}, 9, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metric.NewRegistry()
			if _, err := reg.AddRaw("cost", "samples", 1); err != nil {
				t.Fatal(err)
			}
			tree := NewTree("frameless", reg)
			for i, p := range tc.paths {
				tree.AddPath(p...).Base.Add(0, float64(i+1))
			}
			tree.ComputeMetrics()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("the reference implementation renders this tree: the case no longer pins the crash")
					}
				}()
				oracleBuildFlatView(tree)
			}()

			if cv := BuildCallersView(tree); cv.ExpandAll() != nil {
				t.Error("callers view does not expand")
			}
			fv := BuildFlatView(tree)
			if len(fv.Roots) != 1 {
				t.Fatalf("modules %v, want one (no frame names a module)", labels(fv.Roots))
			}
			if got := fv.Roots[0].Incl.Get(0); got != tc.module || got != tree.Total(0) {
				t.Errorf("module inclusive = %v, want %v (the tree's total %v)", got, tc.module, tree.Total(0))
			}
			var unknown *Node
			var flatStmts, cctStmts float64
			Walk(fv.Roots[0], func(n *Node) bool {
				if n.Kind == KindProc && n.Name == 0 {
					unknown = n
				}
				if n.Kind == KindStmt {
					flatStmts += n.Excl.Get(0)
				}
				return true
			})
			Walk(tree.Root, func(n *Node) bool {
				if n.Kind == KindStmt {
					cctStmts += n.Excl.Get(0)
				}
				return true
			})
			if flatStmts != cctStmts {
				t.Errorf("flat statement rows sum to %v, the CCT's statements to %v", flatStmts, cctStmts)
			}
			if unknown == nil || !unknown.NoSource || !unknown.Parent.NoSource || unknown.Label() != "<unknown>" || unknown.Parent.Label() != "<unknown file>" {
				t.Fatalf("no <unknown file>/<unknown> home without source in %v", labels(fv.Roots[0].Children))
			}
			if got := unknown.Incl.Get(0); got != tc.unknown {
				t.Errorf("<unknown> inclusive = %v, want %v", got, tc.unknown)
			}
		})
	}
}

// cctOf builds the allocation tests' tree: at least 10⁴ scopes under each of
// the given number of entry frames, and the number of flat scopes it maps to.
func cctOf(t *testing.T, entries int) (tree *Tree, flatScopes int) {
	tree, _ = randomCCTShape(5, 40_000, cctShape{entries: entries, cols: 4})
	if n := tree.NumNodes(); n < 10_000*entries {
		t.Fatalf("%d scopes under %d entry frames, want 10⁴ each", n, entries)
	}
	for _, lm := range BuildFlatView(tree).Roots {
		Walk(lm, func(*Node) bool { flatScopes++; return true })
	}
	return tree, flatScopes
}

// TestFlatViewAllocations is the allocation contract of the sweep: a tenth
// of the reference implementation's count at most, and following the flat
// scopes rather than the CCT's — the same subtree under four entry frames
// instead of two maps to the same flat scopes and costs a handful of objects
// more, not twice as many. (Two against one would also count the child
// indexes of flat scopes that only got wide at the end of the first copy:
// Node.Child builds an index at the first lookup that finds the scope wide.)
func TestFlatViewAllocations(t *testing.T) {
	one, flatScopes := cctOf(t, 1)
	sweep := testing.AllocsPerRun(2, func() { BuildFlatView(one) })
	oracle := testing.AllocsPerRun(1, func() { oracleBuildFlatView(one) })
	t.Logf("%d CCT scopes, %d flat scopes: %v objects, reference implementation %v", one.NumNodes(), flatScopes, sweep, oracle)
	if sweep > oracle/10 {
		t.Errorf("BuildFlatView allocates %v objects, the reference implementation %v: want a tenth at most", sweep, oracle)
	}
	two, flatScopes2 := cctOf(t, 2)
	four, flatScopes4 := cctOf(t, 4)
	if flatScopes2 != flatScopes || flatScopes4 != flatScopes {
		t.Fatalf("%d flat scopes under one entry frame, %d under two, %d under four", flatScopes, flatScopes2, flatScopes4)
	}
	twice := testing.AllocsPerRun(2, func() { BuildFlatView(two) })
	fourfold := testing.AllocsPerRun(2, func() { BuildFlatView(four) })
	t.Logf("%d CCT scopes: %v objects; %d CCT scopes: %v objects", two.NumNodes(), twice, four.NumNodes(), fourfold)
	if fourfold > twice+8 {
		t.Errorf("%d CCT scopes cost %v objects, %d cost %v: allocations follow CCT scopes, not flat scopes", two.NumNodes(), twice, four.NumNodes(), fourfold)
	}
}
