package repro

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/bench/gen"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/expdb"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/oracle"
	"repro/internal/source"
	"repro/internal/workloads"
)

// A relation between two views that Section IV-B's exposed-instance rule
// implies: a Callers View root and the Flat View procedure rows of the same
// procedure (one per load module it appears under) aggregate the same
// frames, those exposed with respect to the procedure, by the same rule for
// both planes. So every root's inclusive and exclusive cells are the cells
// of those rows, summed. The relation compares two views with each other,
// not with a reference, so it holds of the rules (internal/oracle) and of
// the views the system builds (core.Build*View) alike.

// procKey names a procedure as both views' procedure rows do.
type procKey struct {
	name, file string
	line       int
}

// procCells is a procedure's inclusive and exclusive cells by registry
// column.
type procCells struct{ incl, excl []float64 }

func (c procCells) add(d procCells) procCells {
	if c.incl == nil {
		c = procCells{make([]float64, len(d.incl)), make([]float64, len(d.excl))}
	}
	for i := range d.incl {
		c.incl[i] += d.incl[i]
		c.excl[i] += d.excl[i]
	}
	return c
}

func keyOf(k core.Key) procKey { return procKey{k.Name.String(), k.File.String(), k.Line} }

func viewCells(reg *metric.Registry, n *core.Node) procCells {
	c := procCells{make([]float64, reg.Len()), make([]float64, reg.Len())}
	for id := range c.incl {
		c.incl[id], c.excl[id] = n.Incl.Get(id), n.Excl.Get(id)
	}
	return c
}

// oracleRelation returns the rules' Callers roots and their Flat procedure
// rows summed by procedure.
func oracleRelation(t *core.Tree) (roots []procKey, callers, flat map[procKey]procCells) {
	callers, flat = map[procKey]procCells{}, map[procKey]procCells{}
	for _, r := range oracle.Callers(t).Roots {
		k := keyOf(r.Key)
		roots = append(roots, k)
		callers[k] = callers[k].add(procCells{r.Incl, r.Excl})
	}
	for _, lm := range oracle.Flat(t).Roots {
		for _, f := range lm.Children {
			for _, p := range f.Children {
				flat[keyOf(p.Key)] = flat[keyOf(p.Key)].add(procCells{p.Incl, p.Excl})
			}
		}
	}
	return roots, callers, flat
}

// systemRelation is oracleRelation over core.BuildCallersView and
// core.BuildFlatView.
func systemRelation(t *core.Tree) (roots []procKey, callers, flat map[procKey]procCells) {
	callers, flat = map[procKey]procCells{}, map[procKey]procCells{}
	for _, r := range core.BuildCallersView(t).Roots {
		k := keyOf(r.Key)
		roots = append(roots, k)
		callers[k] = callers[k].add(viewCells(t.Reg, r))
	}
	for _, lm := range core.BuildFlatView(t).Roots {
		for _, f := range lm.Children {
			for _, p := range f.Children {
				flat[keyOf(p.Key)] = flat[keyOf(p.Key)].add(viewCells(t.Reg, p))
			}
		}
	}
	return roots, callers, flat
}

// everyInstanceExcl is the planted bug the relation must catch: Callers
// roots whose exclusive cells sum every frame of the procedure, recursive
// ones included, where the rule sums the exposed frames only.
func everyInstanceExcl(t *core.Tree, callers map[procKey]procCells) map[procKey]procCells {
	out := map[procKey]procCells{}
	for k, c := range callers {
		out[k] = procCells{c.incl, append([]float64(nil), c.excl...)}
	}
	onPath := map[procKey]int{}
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		var k procKey
		if n.Kind == core.KindFrame {
			k = procKey{n.Name.String(), n.File.String(), n.Line}
			if onPath[k] > 0 {
				for id, x := range out[k].excl {
					out[k].excl[id] = x + n.Excl.Get(id)
				}
			}
			onPath[k]++
		}
		for _, c := range n.Children {
			walk(c)
		}
		if n.Kind == core.KindFrame {
			onPath[k]--
		}
	}
	walk(t.Root)
	return out
}

// relationMismatch returns the first root whose cells differ from its
// procedure's summed Flat rows by more than a relative 1e-9, "" when none
// does. Derived columns are left out: a formula of a sum is not the sum of
// the formula.
func relationMismatch(reg *metric.Registry, roots []procKey, callers, flat map[procKey]procCells) string {
	for _, k := range roots {
		c, f := callers[k], flat[k]
		if f.incl == nil {
			return fmt.Sprintf("callers root %v has no flat procedure row", k)
		}
		for _, d := range reg.Columns() {
			if d.Kind == metric.Derived {
				continue
			}
			for _, p := range [...]struct {
				plane      string
				root, rows float64
			}{{"inclusive", c.incl[d.ID], f.incl[d.ID]}, {"exclusive", c.excl[d.ID], f.excl[d.ID]}} {
				if diff := math.Abs(p.root - p.rows); diff > 1e-9*math.Max(math.Abs(p.root), math.Abs(p.rows)) {
					return fmt.Sprintf("%v %s %s: callers root %v, flat rows sum to %v", k, d.Name, p.plane, p.root, p.rows)
				}
			}
		}
	}
	return ""
}

// crossSource is a tree the cross-view relations are checked on.
type crossSource struct {
	name string
	tree func(t *testing.T) *core.Tree
}

// crossSources are Fig. 2, eight seeds of each generated shape and every
// workload at 64 ranks.
func crossSources() []crossSource {
	sources := []crossSource{{"fig2", func(*testing.T) *core.Tree { return core.Fig1Tree() }}}
	for seed := int64(1); seed <= 8; seed++ {
		sources = append(sources, crossSource{fmt.Sprintf("recursive/seed=%d", seed), func(*testing.T) *core.Tree {
			return oracle.RandomRecursiveTree(500, seed)
		}})
		for _, sh := range []struct {
			name  string
			shape oracle.CCTShape
		}{
			{"wide", oracle.CCTShape{Cols: 3}},
			{"recursion5", oracle.CCTShape{Cols: 1, RecDepth: 5}},
			{"negative", oracle.CCTShape{Entries: 2, Cols: 2, ZeroCol: true, Negative: true}},
		} {
			sources = append(sources, crossSource{fmt.Sprintf("shape/%s/seed=%d", sh.name, seed), func(*testing.T) *core.Tree {
				tree, _ := oracle.RandomCCTShape(seed, 200, sh.shape)
				return tree
			}})
		}
	}
	for _, name := range workloads.Names() {
		sources = append(sources, crossSource{name + "/ranks=64", func(t *testing.T) *core.Tree {
			res, err := merge.Profiles(mustMPIProfiles(t, name, 64))
			if err != nil {
				t.Fatal(err)
			}
			return res.Tree
		}})
	}
	return sources
}

func TestCallersRootsSumFlatProcedures(t *testing.T) {
	sources := crossSources()
	planted := map[string]bool{}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			tree := src.tree(t)
			roots, callers, flat := oracleRelation(tree)
			if m := relationMismatch(tree.Reg, roots, callers, flat); m != "" {
				t.Errorf("rules: %s", m)
			}
			planted[src.name] = relationMismatch(tree.Reg, roots, everyInstanceExcl(tree, callers), flat) != ""
			roots, callers, flat = systemRelation(tree)
			if m := relationMismatch(tree.Reg, roots, callers, flat); m != "" {
				t.Errorf("system: %s", m)
			}
		})
	}
	// Fig. 2 has a recursive frame with a cost of its own (gx is 4, not 5).
	if !planted["fig2"] {
		t.Error("summing every instance's exclusive cells into the Callers roots kept the relation on Fig. 2")
	}
}

// A relation between a diff union and its inputs. Restricted to input L,
// the union is L's own tree, and a scope L lacks has no cost in L's
// columns, so L's Flat View procedure rows and Callers View roots are the
// union's, column M[L] divided by L's normalization, read as column M.

// unionRelationMismatch returns the first procedure whose Flat rows or
// Callers roots in input i differ from the union's M[L] cells ÷ Norm by
// more than a relative 1e-9, "" when none does. A procedure absent from
// one side reads 0 there.
func unionRelationMismatch(res *diff.Result, i int, in *core.Tree) string {
	_, uCallers, uFlat := systemRelation(res.Tree)
	_, lCallers, lFlat := systemRelation(in)
	norm := res.Inputs[i].Norm
	for _, v := range [...]struct {
		name    string
		union   map[procKey]procCells
		ofInput map[procKey]procCells
	}{{"flat", uFlat, lFlat}, {"callers", uCallers, lCallers}} {
		keys := map[procKey]bool{}
		for k := range v.union {
			keys[k] = true
		}
		for k := range v.ofInput {
			keys[k] = true
		}
		for k := range keys {
			u, l := v.union[k], v.ofInput[k]
			for _, mc := range res.Metrics {
				id := in.Reg.ByName(mc.Name).ID
				for _, p := range [...]struct {
					plane string
					u, l  []float64
				}{{"inclusive", u.incl, l.incl}, {"exclusive", u.excl, l.excl}} {
					var uv, lv float64
					if p.u != nil {
						uv = p.u[mc.In[i]] / norm
					}
					if p.l != nil {
						lv = p.l[id]
					}
					if d := math.Abs(uv - lv); d > 1e-9*math.Max(math.Abs(uv), math.Abs(lv)) {
						return fmt.Sprintf("%s %v %s %s: input %s reads %v, the union %v",
							v.name, k, mc.Name, p.plane, res.Inputs[i].Label, lv, uv)
					}
				}
			}
		}
	}
	return ""
}

func TestUnionViewsAreInputViews(t *testing.T) {
	generated := func(t *testing.T, c gen.CCT, ranks int) *expdb.Experiment {
		tree, err := source.BuildTree(genSource{c})
		if err != nil {
			t.Fatal(err)
		}
		return &expdb.Experiment{Program: "synth", NRanks: ranks, Tree: tree}
	}
	for _, pair := range []struct {
		name string
		a, b func(*testing.T) *expdb.Experiment
	}{
		// TestConformance's union row.
		{"union", func(t *testing.T) *expdb.Experiment { return equivExperiment(t, "pflotran", 1) },
			func(t *testing.T) *expdb.Experiment { return equivExperiment(t, "pflotran", 7) }},
		// The compare benchmark's pair at its short size.
		{"compare", func(t *testing.T) *expdb.Experiment { return generated(t, gen.CCT{Seed: 1, Scopes: 3000, Cols: 4}, 4) },
			func(t *testing.T) *expdb.Experiment {
				return generated(t, gen.CCT{Seed: 1, Scopes: 3000, Cols: 4, P: &gen.Perturb{Seed: 2, Drop: 0.05, Add: 0.05, Scale: 0.4}}, 16)
			}},
	} {
		t.Run(pair.name, func(t *testing.T) {
			ins := []*expdb.Experiment{pair.a(t), pair.b(t)}
			res, err := diff.Diff(diff.Config{}, diff.Input{Label: "A", Exp: ins[0]}, diff.Input{Label: "B", Exp: ins[1]})
			if err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				if m := unionRelationMismatch(res, i, in.Tree); m != "" {
					t.Error(m)
				}
			}
			// The planted bug the relation must catch: a gather that fills
			// the union's exclusive cells from the inputs' inclusive plane.
			st := res.Tree.MetricStore()
			for _, mc := range res.Metrics {
				for _, col := range mc.In {
					st.AdoptCol(metric.PlaneExcl, col, slices.Clone(st.ColRead(metric.PlaneIncl, col)), false)
				}
			}
			for i, in := range ins {
				if unionRelationMismatch(res, i, in.Tree) == "" {
					t.Errorf("exclusive cells gathered from the inclusive plane kept the relation for input %s", res.Inputs[i].Label)
				}
			}
		})
	}
}

// Three more relations, each checked of the rules and of the views the
// system builds:
//   - every sample is a statement's, and a statement maps to one Flat View
//     row, so the statement rows' raw inclusive cells sum to the CCT root's;
//   - Equation 3 descends while the hottest child holds at least t of its
//     parent's cost, so a larger threshold stops no later: its hot path is
//     a prefix of a smaller threshold's;
//   - a scope whose costs are all zero moves no cost, so adding such scopes
//     adds only rows whose every cell is zero, in every view, and changes no
//     cell of any other row.

// rawColumns are the registry's raw columns, the ones a sum over rows may
// be compared on.
func rawColumns(reg *metric.Registry) []int {
	var ids []int
	for _, d := range reg.Columns() {
		if d.Kind == metric.Raw {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// near reports whether two sums of the same addends in different orders
// agree to a relative 1e-9.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

func TestFlatStatementsConserveRootCost(t *testing.T) {
	for _, src := range crossSources() {
		t.Run(src.name, func(t *testing.T) {
			tree := src.tree(t)
			cols := rawColumns(tree.Reg)
			core.Walk(tree.Root, func(n *core.Node) bool {
				for _, id := range cols {
					if n.Base.Get(id) != 0 && (n.Kind != core.KindStmt || len(n.Children) > 0) {
						t.Fatalf("fixture: %s, no statement leaf, has a cost of its own", n.Label())
					}
				}
				return true
			})
			var rules func(rows []*oracle.Row, id int) float64
			rules = func(rows []*oracle.Row, id int) (sum float64) {
				for _, r := range rows {
					if r.Kind == core.KindStmt {
						sum += r.Incl[id]
					}
					sum += rules(r.Children, id)
				}
				return sum
			}
			system := func(roots []*core.Node, id int) (sum float64) {
				for _, r := range roots {
					core.Walk(r, func(n *core.Node) bool {
						if n.Kind == core.KindStmt {
							sum += n.Incl.Get(id)
						}
						return true
					})
				}
				return sum
			}
			want, flat := oracle.Flat(tree), core.BuildFlatView(tree)
			for _, id := range cols {
				root := tree.Root.Incl.Get(id)
				if got := rules(want.Roots, id); !near(got, root) {
					t.Errorf("rules: column %d: statement rows sum to %v, the root holds %v", id, got, root)
				}
				if got := system(flat.Roots, id); !near(got, root) {
					t.Errorf("system: column %d: statement rows sum to %v, the root holds %v", id, got, root)
				}
			}
		})
	}
}

func TestHotPathThresholdPrefix(t *testing.T) {
	thresholds := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1}
	paths := map[string]func(*core.Node, int, float64) []*core.Node{"rules": oracle.HotPath, "system": core.HotPath}
	shorter := 0
	for _, src := range crossSources() {
		t.Run(src.name, func(t *testing.T) {
			tree := src.tree(t)
			for _, start := range append([]*core.Node{tree.Root}, tree.Root.Children...) {
				for _, id := range rawColumns(tree.Reg) {
					for name, hot := range paths {
						var prev []*core.Node
						for i, th := range thresholds {
							p := hot(start, id, th)
							if i > 0 && (len(p) > len(prev) || !slices.Equal(p, prev[:len(p)])) {
								t.Fatalf("%s: from %s on column %d the path at t=%v is no prefix of the path at t=%v", name, start.Label(), id, th, thresholds[i-1])
							}
							if i > 0 && len(p) < len(prev) {
								shorter++
							}
							prev = p
						}
					}
				}
			}
		})
	}
	if shorter == 0 {
		t.Error("fixture: no larger threshold gave a shorter path")
	}
}

// costCells are a view row's cells, inclusive then exclusive, by registry
// column.
type costCells []float64

// costRows lists the rows with a nonzero cell of every view of a tree, the
// rules' and the system's, by view and path of keys.
func costRows(tree *core.Tree) map[string]costCells {
	out := map[string]costCells{}
	n := tree.Reg.Len()
	var nodes func(at string, ns []*core.Node)
	nodes = func(at string, ns []*core.Node) {
		for _, x := range ns {
			here, c := fmt.Sprintf("%s/%v", at, x.Key), make(costCells, 2*n)
			for id := 0; id < n; id++ {
				c[id], c[n+id] = x.Incl.Get(id), x.Excl.Get(id)
			}
			if slices.ContainsFunc(c, func(v float64) bool { return v != 0 }) {
				out[here] = c
			}
			nodes(here, x.Children)
		}
	}
	var rows func(at string, rs []*oracle.Row)
	rows = func(at string, rs []*oracle.Row) {
		for _, r := range rs {
			here := fmt.Sprintf("%s/%v", at, r.Key)
			if c := append(slices.Clone(r.Incl), r.Excl...); slices.ContainsFunc(c, func(v float64) bool { return v != 0 }) {
				out[here] = c
			}
			rows(here, r.Children)
		}
	}
	callers := core.BuildCallersView(tree)
	if err := callers.ExpandAll(); err != nil {
		panic(err)
	}
	nodes("system cct", []*core.Node{tree.Root})
	nodes("system flat", core.BuildFlatView(tree).Roots)
	nodes("system callers", callers.Roots)
	rows("rules cct", oracle.CCT(tree).Roots)
	rows("rules flat", oracle.Flat(tree).Roots)
	rows("rules callers", oracle.Callers(tree).Roots)
	return out
}

func TestZeroCostScopesAddNoCost(t *testing.T) {
	for _, src := range crossSources() {
		t.Run(src.name, func(t *testing.T) {
			tree := src.tree(t)
			before := costRows(tree)
			// Below every fifth frame, in preorder, a frame of a new
			// procedure and one of the frame's own, each over a statement
			// that cost nothing.
			var frames []*core.Node
			core.Walk(tree.Root, func(n *core.Node) bool {
				if n.Kind == core.KindFrame {
					frames = append(frames, n)
				}
				return true
			})
			for i := 0; i < len(frames); i += 5 {
				f := frames[i]
				for _, k := range []core.Key{
					{Kind: core.KindFrame, Name: core.Sym("zero"), File: core.Sym("zero.c"), ID: 99},
					{Kind: core.KindFrame, Name: f.Name, File: f.File, Line: f.Line, ID: 99},
				} {
					c := f.Child(k, true)
					c.Mod, c.CallFile, c.CallLine = f.Mod, f.File, 77
					c.Child(core.Key{Kind: core.KindStmt, File: k.File, Line: 1}, true)
				}
			}
			tree.ComputeMetrics()
			after := costRows(tree)
			same := func(a, b costCells) bool {
				return slices.EqualFunc(a, b, func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) })
			}
			for path, c := range after {
				if b, ok := before[path]; !ok || !same(b, c) {
					t.Fatalf("%s: cells %v once zero-cost scopes are added, %v before", path, c, b)
				}
			}
			for path, b := range before {
				if _, ok := after[path]; !ok {
					t.Fatalf("%s: cells %v before zero-cost scopes are added, none after", path, b)
				}
			}
		})
	}
}
