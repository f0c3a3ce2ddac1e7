package oracle

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metric"
)

// The seeded trees the rules are checked on. One seed always gives the same
// tree, scope for scope and bit for bit.

// CCTShape says what RandomCCTShape puts into a tree beside the frames,
// loops, inlined bodies and statements every tree gets.
type CCTShape struct {
	Entries  int  // entry frames, each over a copy of the same subtree (0 means 1)
	Cols     int  // metric columns; column 0 is set at every statement
	ZeroCol  bool // one more column, registered and never written
	Negative bool // costs of either sign, as a diff tree has
	RecDepth int  // how deep "rec" calls itself through one call site (0 means 3)
}

// RandomCCTShape builds a random tree over five procedures in three files
// and two modules: self-recursion at least three deep through one call site
// ("rec"), mutual recursion (any procedure calls any other), nested loops,
// and inlined code, at most 40 scopes deep. size is the number of generator
// steps per entry frame. It returns the finished tree and the total Base
// cost of column 0.
func RandomCCTShape(seed int64, size int, sh CCTShape) (*core.Tree, float64) {
	var rng *rand.Rand
	reg := metric.NewRegistry()
	ncols := sh.Cols
	if sh.ZeroCol {
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
	tree := core.NewTree("rnd", reg)
	procs := []string{"main", "a", "b", "c", "rec"}
	var total float64

	frame := func(parent *core.Node, name string) *core.Node {
		fr := parent.Child(core.Key{Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym(name + ".c"), ID: uint64(rng.Intn(4))}, true)
		fr.CallLine = rng.Intn(9) + 1
		fr.CallFile = core.Sym("m.c")
		fr.NoSource = rng.Intn(8) == 0 // the flat rows keep the last writer's
		if name == "b" || name == "c" {
			fr.Mod = core.Sym("lib.so")
		}
		return fr
	}
	recDepth := sh.RecDepth
	if recDepth == 0 {
		recDepth = 3
	}
	for e := 0; e < max(1, sh.Entries); e++ {
		rng = rand.New(rand.NewSource(seed)) // every entry frame gets the same subtree
		cur := tree.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("m.c"), ID: uint64(e)}, true)
		stack := []*core.Node{cur}
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
				stack = append(stack, top.Child(core.Key{Kind: core.KindLoop, File: core.Sym("m.c"), Line: rng.Intn(20) + 1}, true))
			case 2, 3: // sample at a statement
				k := core.Key{Kind: core.KindStmt, File: core.Sym("m.c"), Line: rng.Intn(40) + 1}
				s := top.Child(k, true)
				for c := 0; c < sh.Cols; c++ {
					if c > 0 && rng.Intn(2) == 0 {
						continue
					}
					v := float64(rng.Intn(5) + 1)
					if sh.Negative && rng.Intn(3) == 0 {
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
				al := top.Child(core.Key{Kind: core.KindAlien, Name: core.Sym("inl"), File: core.Sym("inl.h"), Line: rng.Intn(3) + 1}, true)
				al.CallLine, al.CallFile = rng.Intn(9)+1, core.Sym("m.c")
				al.NoSource = rng.Intn(4) == 0
				stack = append(stack, al)
			case 6: // recurse recDepth deep through one call site
				for d := 0; d < recDepth; d++ {
					fr := stack[len(stack)-1].Child(core.Key{Kind: core.KindFrame, Name: core.Sym("rec"), File: core.Sym("rec.c"), ID: 7}, true)
					fr.CallLine, fr.CallFile = 5, core.Sym("rec.c")
					stack = append(stack, fr)
				}
			}
		}
	}
	tree.ComputeMetrics()
	return tree, total
}

// RandomRecursiveTree builds a finished CCT of about nodes generator steps
// with recursion and loops over a dozen procedures and two columns, big
// enough that concurrent expansion has real work to interleave.
func RandomRecursiveTree(nodes int, seed int64) *core.Tree {
	rng := rand.New(rand.NewSource(seed))
	t := core.NewTree("race", nil)
	for _, name := range []string{"CYCLES", "FLOPS"} {
		if _, err := t.Reg.AddRaw(name, "events", 1); err != nil {
			panic(err)
		}
	}
	procs := make([]string, 12)
	for i := range procs {
		procs[i] = fmt.Sprintf("p%02d", i)
	}
	cur := t.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("main.c")}, true)
	stack := []*core.Node{cur}
	for created := 1; created < nodes; created++ {
		switch op := rng.Intn(5); {
		case op <= 1 && len(stack) < 24:
			name := procs[rng.Intn(len(procs))]
			fr := stack[len(stack)-1].Child(core.Key{Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym("x.c"), ID: uint64(rng.Intn(4))}, true)
			fr.CallLine = rng.Intn(90) + 1
			fr.CallFile = core.Sym("x.c")
			stack = append(stack, fr)
		case op == 2:
			st := stack[len(stack)-1].Child(core.Key{Kind: core.KindStmt, File: core.Sym("x.c"), Line: rng.Intn(300) + 1}, true)
			st.Base.Add(0, float64(rng.Intn(50)+1))
			st.Base.Add(1, float64(created%4)) // drawn from no rng: the shape stays the seed's
		default:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	t.ComputeMetrics()
	return t
}
