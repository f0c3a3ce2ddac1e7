package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/metric"
)

// addFormulas registers non-linear formulas over a tree's two raw columns,
// the last over the two before it, and evaluates them on the tree.
func addFormulas(t *testing.T, tree *Tree) {
	t.Helper()
	for _, f := range [][2]string{
		{"ratio", "$1 / $0"},
		{"mix", "sqrt($0*$1) - $0^2/($1 + 1)"},
		{"chain", "$2*$3 + max($2, 1)"},
	} {
		if _, err := tree.Reg.AddDerived(f[0], f[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFormulaRows: on both planes of every row under roots, each derived
// cell equals its formula evaluated over that row's own cells (NaN matches
// NaN).
func checkFormulaRows(t *testing.T, view string, roots []*Node, reg *metric.Registry) {
	t.Helper()
	for _, d := range reg.Columns() {
		if d.Kind != metric.Derived {
			continue
		}
		e, err := d.Expr()
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range roots {
			Walk(root, func(n *Node) bool {
				for _, v := range []*metric.View{&n.Incl, &n.Excl} {
					want, err := e.Eval(metric.EnvFunc(v.Get))
					if err != nil {
						t.Fatal(err)
					}
					if got := v.Get(d.ID); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s view, %s: %s = %v, want %v over %s", view, n.Label(), d.Name, got, want, v.String())
					}
				}
				return true
			})
		}
	}
}

// TestViewRowsEvaluateFormulasProperty: on generated trees with recursion,
// loops, inlined code and costs of either sign, every row of a complete
// Flat View, of a lazy one after Complete and of a Callers View after
// ExpandAll shows each formula of the registry over its own cells.
func TestViewRowsEvaluateFormulasProperty(t *testing.T) {
	trees := map[string]func(seed int64) *Tree{
		"recursive": func(seed int64) *Tree { return randomRecursiveTree(1500, seed) },
		"shape": func(seed int64) *Tree {
			tree, _ := randomCCTShape(seed, 300, cctShape{entries: 2, cols: 2, negative: true})
			return tree
		},
	}
	for name, build := range trees {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				tree := build(seed)
				addFormulas(t, tree)
				checkFormulaRows(t, "flat", BuildFlatView(tree).Roots, tree.Reg)
				lazy := BuildFlatViewLazy(tree)
				checkFormulaRows(t, "lazy flat", lazy.Roots, tree.Reg)
				lazy.Complete()
				checkFormulaRows(t, "completed flat", lazy.Roots, tree.Reg)
				cv := BuildCallersView(tree)
				checkFormulaRows(t, "callers", cv.Roots, tree.Reg)
				if err := cv.ExpandAll(); err != nil {
					t.Fatal(err)
				}
				checkFormulaRows(t, "expanded callers", cv.Roots, tree.Reg)
			})
		}
	}
}
