// Fixtures shared by the root package's tests: the sequential and MPI
// runs of a named workload, and the fixed-seed synthetic CCT.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/lower"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

func mustSeqTree(b testing.TB, name string) *core.Tree {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sampler.New(spec.Name, 0, 0, sampler.DefaultEvents(spec.Period))
	if err != nil {
		b.Fatal(err)
	}
	vm, err := sim.New(im, sim.Config{Observer: s})
	if err != nil {
		b.Fatal(err)
	}
	if err := vm.Run(); err != nil {
		b.Fatal(err)
	}
	tree, err := correlate.Correlate(doc, s.Profile())
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

func mustMPIProfiles(b testing.TB, name string, ranks int) (*structfile.Doc, []*profile.Profile) {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		b.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params,
		Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		b.Fatal(err)
	}
	return doc, profs
}

// syntheticCCT builds a CCT with about n scopes, with recursion, loops and
// a realistic branching factor, for the counters' scalability rows
// (E-SCALE-*).
func syntheticCCT(n int, seed int64) *core.Tree {
	rng := rand.New(rand.NewSource(seed))
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("CYCLES", "cycles", 1); err != nil {
		panic(err)
	}
	t := core.NewTree("synth", reg)
	procs := make([]string, 40)
	for i := range procs {
		procs[i] = fmt.Sprintf("proc%02d", i)
	}
	cur := t.Root.Child(core.Key{Kind: core.KindFrame, Name: core.Sym("main"), File: core.Sym("main.c")}, true)
	stack := []*core.Node{cur}
	// addChild tracks the node count incrementally; Child() may return an
	// existing scope, which must not count twice.
	created := 1
	addChild := func(parent *core.Node, k core.Key) *core.Node {
		before := len(parent.Children)
		c := parent.Child(k, true)
		if len(parent.Children) != before {
			created++
		}
		return c
	}
	for created < n {
		op := rng.Intn(6)
		if len(stack) > 30 {
			op = 5 // keep call chains at realistic depths
		}
		switch op {
		case 0, 1:
			name := procs[rng.Intn(len(procs))]
			fr := addChild(stack[len(stack)-1], core.Key{
				Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym(name + ".c"),
				ID: uint64(rng.Intn(8)),
			})
			fr.CallLine = rng.Intn(200) + 1
			fr.CallFile = core.Sym("x.c")
			stack = append(stack, fr)
		case 2:
			l := addChild(stack[len(stack)-1], core.Key{Kind: core.KindLoop, File: core.Sym("x.c"), Line: rng.Intn(300) + 1})
			stack = append(stack, l)
		case 3, 4:
			s := addChild(stack[len(stack)-1], core.Key{Kind: core.KindStmt, File: core.Sym("x.c"), Line: rng.Intn(500) + 1})
			s.Base.Add(0, float64(rng.Intn(100)+1))
		case 5:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	t.ComputeMetrics()
	return t
}
