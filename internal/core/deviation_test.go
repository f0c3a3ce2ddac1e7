package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/metric"
)

// TestFlatCallSiteRowsSumExposedInstances checks the call-site row rule
// (DESIGN.md §4.4) where Figure 2 cannot: a self-recursive chain three deep
// through one call site. The call-site row sums the static-rule exclusive
// of the instances exposed with respect to it, so g2 (the first instance
// through a.c:3) contributes and g3, below it, does not; g3's own cost shows
// in the Calling Context View, in the inclusive column and at its statement
// row, which conserves every sample.
func TestFlatCallSiteRowsSumExposedInstances(t *testing.T) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("cost", "samples", 1); err != nil {
		t.Fatal(err)
	}
	tree := NewTree("deep", reg)
	frame := func(parent *Node, name string, callLine int) *Node {
		n := parent.Child(Key{Kind: KindFrame, Name: Sym(name), File: Sym("a.c"), Line: 1}, true)
		n.CallFile = Sym("a.c")
		n.CallLine = callLine
		return n
	}
	work := func(fr *Node, line int, v float64) {
		s := fr.Child(Key{Kind: KindStmt, File: Sym("a.c"), Line: line}, true)
		s.Base.Add(0, v)
	}
	// m -> g1 -> g2 -> g3, all through the same call site a.c:3.
	m := frame(tree.Root, "m", 0)
	g1 := frame(m, "g", 9)
	work(g1, 2, 1)
	g2 := frame(g1, "g", 3)
	work(g2, 2, 2)
	g3 := frame(g2, "g", 3)
	work(g3, 2, 4)
	tree.ComputeMetrics()

	// CCV is exact: every instance carries its own cost.
	if g3.Excl.Get(0) != 4 || g2.Excl.Get(0) != 2 || g1.Excl.Get(0) != 1 {
		t.Fatal("CCV exclusive wrong")
	}

	fv := BuildFlatView(tree)
	var gx, gz *Node
	Walk(fv.Roots[0], func(n *Node) bool {
		if n.Kind == KindProc && n.Name.String() == "g" {
			gx = n
		}
		if n.Kind == KindCallSite && n.Name.String() == "g" {
			gz = n
		}
		return true
	})
	if gx == nil || gz == nil {
		t.Fatal("flat scopes missing")
	}
	// Proc row: exposed instance g1 only -> (7, 1).
	if gx.Incl.Get(0) != 7 || gx.Excl.Get(0) != 1 {
		t.Fatalf("gx = (%g, %g), want (7, 1)", gx.Incl.Get(0), gx.Excl.Get(0))
	}
	// Call-site row: g2 is the exposed instance w.r.t. the site -> its
	// inclusive (6) and direct-statement exclusive (2). g3 is not exposed
	// to the row: its own 4 is in the CCV and the inclusive column.
	if gz.Incl.Get(0) != 6 || gz.Excl.Get(0) != 2 {
		t.Fatalf("gz = (%g, %g), want (6, 2)", gz.Incl.Get(0), gz.Excl.Get(0))
	}
	var flatExclSum float64
	Walk(fv.Roots[0], func(n *Node) bool {
		if n.Kind == KindStmt {
			flatExclSum += n.Excl.Get(0)
		}
		return true
	})
	// Statement rows DO conserve everything (they sum all instances).
	if flatExclSum != 7 {
		t.Fatalf("flat statement exclusives = %g, want 7", flatExclSum)
	}
}

// TestFlatExclusiveRuleProperty states the Flat View's exclusive rule
// (DESIGN.md §4.4) over random self- and mutually recursive trees, against
// a recursion over the CCT that keeps its own exposure counts by row path:
//   - a statement row sums every instance's exclusive (its Base);
//   - a procedure row sums the frame-rule exclusive of the instances
//     exposed with respect to it;
//   - a call-site row sums the static-rule exclusive (the callee's Base and
//     its direct statement children's) of the frame instances exposed with
//     respect to it;
//   - file and module rows sum their children's.
//
// The statement rows conserve the CCT's total.
func TestFlatExclusiveRuleProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		tree := randomRecursiveTree(400, seed)
		want := map[string]float64{}
		seen := map[string]int{} // ancestors (and self) mapped into each row's subtree
		enter := func(path []Key) bool {
			k := fmt.Sprint(path)
			seen[k]++
			return seen[k] == 1
		}
		var visit func(n *Node, frame []Key)
		visit = func(n *Node, frame []Key) {
			var entered [][]Key
			switch n.Kind {
			case KindFrame:
				home := []Key{{Kind: KindLM, Name: n.Mod}, {Kind: KindFile, Name: n.File}, {Kind: KindProc, Name: n.Name, File: n.File, Line: n.Line}}
				for i := range home {
					entered = append(entered, home[:i+1])
					if exposed := enter(home[:i+1]); exposed && i == 2 {
						want[fmt.Sprint(home)] += n.Excl.Get(0)
					}
				}
				if frame != nil {
					cs := append(slices.Clip(frame), Key{Kind: KindCallSite, Name: n.Name, File: n.CallFile, Line: n.CallLine, ID: n.ID})
					entered = append(entered, cs)
					if enter(cs) {
						static := n.Base.Get(0)
						for _, c := range n.Children {
							if c.Kind == KindStmt {
								static += c.Base.Get(0)
							}
						}
						want[fmt.Sprint(cs)] += static
					}
				}
				frame = home
			case KindStmt:
				row := append(slices.Clip(frame), Key{Kind: KindStmt, File: n.File, Line: n.Line})
				for i := 1; i <= len(row); i++ {
					entered = append(entered, row[:i])
					enter(row[:i])
				}
				want[fmt.Sprint(row)] += n.Excl.Get(0)
			}
			for _, c := range n.Children {
				visit(c, frame)
			}
			for _, p := range entered {
				seen[fmt.Sprint(p)]--
			}
		}
		visit(tree.Root, nil)

		v := BuildFlatView(tree)
		var stmts float64
		var check func(n *Node, path []Key) float64
		check = func(n *Node, path []Key) float64 {
			path = append(slices.Clip(path), n.Key)
			k := fmt.Sprint(path)
			exp := want[k]
			delete(want, k)
			var sum float64
			for _, c := range n.Children {
				sum += check(c, path)
			}
			switch n.Kind {
			case KindLM, KindFile:
				exp = sum
			case KindStmt:
				stmts += n.Excl.Get(0)
			}
			if got := n.Excl.Get(0); got != exp {
				t.Fatalf("seed %d: %s: exclusive %v, the rule gives %v", seed, n.Label(), got, exp)
			}
			return n.Excl.Get(0)
		}
		for _, lm := range v.Roots {
			check(lm, nil)
		}
		for k, x := range want {
			if x != 0 {
				t.Fatalf("seed %d: the rule gives row %s exclusive %v, and the view has no such row", seed, k, x)
			}
		}
		if total := tree.Root.Incl.Get(0); stmts != total {
			t.Fatalf("seed %d: statement rows sum to %v, the CCT's total is %v", seed, stmts, total)
		}
	}
}
