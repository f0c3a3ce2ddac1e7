package merge_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// An external test package: the database writers import this one.

func fixture(t testing.TB, name string, ranks int) (*structfile.Doc, []*profile.Profile) {
	t.Helper()
	spec, err := workloads.ByName(name)
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
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	return doc, profs
}

// clone copies a profile through its file format.
func clone(t testing.TB, p *profile.Profile) *profile.Profile {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := profile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// keepGoing merges the way hpcprof -keep-going does — Fold at GOMAXPROCS
// procs, a profile Add refuses is skipped — and returns the v2 and v3
// databases with summary columns, and how many profiles were refused.
func keepGoing(t *testing.T, doc *structfile.Doc, profs []*profile.Profile, procs int) (v2, v3 []byte, refused int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var refusals atomic.Int64
	res, err := merge.Fold(doc, len(profs), func(acc *merge.Accumulator, i int) error {
		if acc.Add(profs[i]) != nil {
			refusals.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AddSummaries(0, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
		t.Fatal(err)
	}
	exp := expdb.FromMerge(res)
	var b2, b3 bytes.Buffer
	if err := exp.WriteBinary(&b2); err != nil {
		t.Fatal(err)
	}
	if err := exp.WriteBinaryV3(&b3); err != nil {
		t.Fatal(err)
	}
	return b2.Bytes(), b3.Bytes(), int(refusals.Load())
}

// Add refuses a bad profile before it has touched anything: whatever is
// wrong with rank 2 of 4, and however late in its walk the fault sits, the
// databases are the ones ranks 0, 1 and 3 alone merge to.
func TestAddRefusesBeforeEffects(t *testing.T) {
	doc, profs := fixture(t, "pflotran", 4)
	nm := len(profs[2].Metrics)
	deepest := func(p *profile.Profile) *profile.Node {
		best, depth := p.Root, 0
		var walk func(n *profile.Node, d int)
		walk = func(n *profile.Node, d int) {
			if d > depth && len(n.Samples()) > 0 {
				best, depth = n, d
			}
			for _, c := range n.Children() {
				walk(c, d+1)
			}
		}
		walk(p.Root, 0)
		return best
	}
	last := func(p *profile.Profile) *profile.Node {
		n := p.Root
		for len(n.Children()) > 0 {
			n = n.Children()[len(n.Children())-1]
		}
		return n
	}
	poisons := []struct {
		name   string
		poison func(p *profile.Profile)
	}{
		// The entry frame is identified by its first PC: the walk's first lookup.
		{"uncovered entry-frame PC", func(p *profile.Profile) { p.Root.AddSample(1, 0, nm, 1) }},
		// A covered sample under an uncovered call site, deep in the trie.
		{"uncovered deep call PC", func(p *profile.Profile) {
			d := deepest(p)
			d.Child(3, true).AddSample(d.Samples()[0].PC, 0, nm, 1)
		}},
		// The walk's last lookup.
		{"uncovered sample PC in the last frame", func(p *profile.Profile) { last(p).AddSample(^uint64(0), 0, nm, 1) }},
		{"foreign fingerprint", func(p *profile.Profile) { p.Fingerprint ^= 1 }},
		{"wrong-length count row", func(p *profile.Profile) { last(p).AddSample(^uint64(0)-8, 0, nm+1, 1) }},
	}
	good := []*profile.Profile{profs[0], profs[1], profs[3]}
	for _, procs := range []int{1, 2} {
		want2, want3, refused := keepGoing(t, doc, good, procs)
		if refused != 0 {
			t.Fatalf("GOMAXPROCS=%d: %d good profiles refused", procs, refused)
		}
		for _, tc := range poisons {
			bad := clone(t, profs[2])
			tc.poison(bad)
			got2, got3, refused := keepGoing(t, doc, []*profile.Profile{profs[0], profs[1], bad, profs[3]}, procs)
			if refused != 1 {
				t.Errorf("GOMAXPROCS=%d, %s: %d profiles refused, want 1", procs, tc.name, refused)
			}
			if !bytes.Equal(got2, want2) || !bytes.Equal(got3, want3) {
				t.Errorf("GOMAXPROCS=%d, %s: databases differ from the merge of the good ranks (v2 %v, v3 %v)",
					procs, tc.name, bytes.Equal(got2, want2), bytes.Equal(got3, want3))
			}
		}
	}
	if doc.Fingerprint == 0 {
		t.Fatal("fixture has no fingerprint: the fingerprint case tested nothing")
	}
}

// Once a rank's scopes all exist, another rank costs a fixed handful of
// allocations whatever the size of its trie: the resolution cache, the
// path cursor and the inclusive scratch are the accumulator's and are
// reused.
func TestAddAllocationsConstant(t *testing.T) {
	var counts []float64
	for _, depth := range []int{4, 160} {
		// main calls p0, p0 calls p1, ...: a trie depth frames deep with work
		// at every level.
		b := prog.NewBuilder("chain").File("chain.c")
		for i := 0; i < depth; i++ {
			body := []prog.Stmt{prog.Lx(3, prog.ConstInt(4), prog.W(4, 40))}
			if i+1 < depth {
				body = append(body, prog.C(5, fmt.Sprint("p", i+1)))
			}
			b.Proc(fmt.Sprint("p", i), 2, body...)
		}
		im, err := lower.Lower(b.Proc("main", 1, prog.C(2, "p0")).Entry("main").MustBuild(), lower.Options{})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := structfile.Recover(im)
		if err != nil {
			t.Fatal(err)
		}
		profs, err := mpi.Run(im, mpi.Config{NRanks: 2, Events: sampler.DefaultEvents(10)})
		if err != nil {
			t.Fatal(err)
		}
		acc := merge.NewAccumulator(doc)
		for i := 0; i < 2; i++ { // the second Add sizes the scratch the first one's scopes need
			if err := acc.Add(profs[0]); err != nil {
				t.Fatal(err)
			}
		}
		n := testing.AllocsPerRun(20, func() {
			if err := acc.Add(profs[1]); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d frames: %v allocations per Add", profs[1].Stats().Frames, n)
		counts = append(counts, n)
	}
	if counts[0] != counts[1] || counts[0] > 8 {
		t.Fatalf("allocations per Add = %v, want equal and at most 8", counts)
	}
}
