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

func TestCallersRootsSumFlatProcedures(t *testing.T) {
	type source struct {
		name string
		tree func(t *testing.T) *core.Tree
	}
	sources := []source{{"fig2", func(*testing.T) *core.Tree { return core.Fig1Tree() }}}
	for seed := int64(1); seed <= 8; seed++ {
		sources = append(sources, source{fmt.Sprintf("recursive/seed=%d", seed), func(*testing.T) *core.Tree {
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
			sources = append(sources, source{fmt.Sprintf("shape/%s/seed=%d", sh.name, seed), func(*testing.T) *core.Tree {
				tree, _ := oracle.RandomCCTShape(seed, 200, sh.shape)
				return tree
			}})
		}
	}
	for _, name := range workloads.Names() {
		sources = append(sources, source{name + "/ranks=64", func(t *testing.T) *core.Tree {
			res, err := merge.Profiles(mustMPIProfiles(t, name, 64))
			if err != nil {
				t.Fatal(err)
			}
			return res.Tree
		}})
	}

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
