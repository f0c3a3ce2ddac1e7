package merge

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/lower"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/render"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// The equivalence harness for the parallel shard/reduce merge: for every
// workload and a spread of rank counts, merging at GOMAXPROCS 1 and 8
// (Fold's worker count) must produce the same experiment — identical trees, metric sums,
// summary statistics and per-node imbalance factors, all bit-for-bit.
// Per-rank values are integral, so metric.Stats keeps Σx and Σx² as exact
// integers and merging is integer addition: no tolerance anywhere.

// profilesAt merges at GOMAXPROCS procs and restores the old value.
// Tests that call it must not run in parallel.
func profilesAt(procs int, doc *structfile.Doc, profs []*profile.Profile) (*Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return Profiles(doc, profs)
}

// workloadFixture builds one workload through the measurement pipeline at
// the given rank count.
func workloadFixture(t testing.TB, name string, ranks int) (*structfile.Doc, []*profile.Profile) {
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
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params,
		Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	return doc, profs
}

// sameVector asserts bit-for-bit equality of two metric views.
func sameVector(t *testing.T, where string, a, b *metric.View) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: vector length %d != %d (%v vs %v)", where, a.Len(), b.Len(), a, b)
	}
	a.Range(func(id int, v float64) {
		if got := b.Get(id); got != v {
			t.Fatalf("%s: column %d: %v != %v", where, id, v, got)
		}
	})
}

// sameTree walks two merged results in lockstep asserting identical
// structure, scope order, metric sums and statistics, all exact.
func sameTree(t *testing.T, seq, par *Result) {
	t.Helper()
	if seq.NRanks != par.NRanks {
		t.Fatalf("NRanks %d != %d", seq.NRanks, par.NRanks)
	}
	if seq.Tree.Reg.Len() != par.Tree.Reg.Len() {
		t.Fatalf("registry width %d != %d", seq.Tree.Reg.Len(), par.Tree.Reg.Len())
	}
	for i, d := range seq.Tree.Reg.Columns() {
		pd := par.Tree.Reg.ByID(i)
		if d.Name != pd.Name || d.Kind != pd.Kind || d.Period != pd.Period {
			t.Fatalf("column %d differs: %+v vs %+v", i, d, pd)
		}
	}
	raw := seq.Tree.Reg.Len()
	var walk func(a, b *core.Node, path string)
	walk = func(a, b *core.Node, path string) {
		if a.Key != b.Key {
			t.Fatalf("%s: key %+v != %+v", path, a.Key, b.Key)
		}
		where := path + "/" + a.Label()
		sameVector(t, where+" incl", &a.Incl, &b.Incl)
		sameVector(t, where+" excl", &a.Excl, &b.Excl)
		sameVector(t, where+" base", &a.Base, &b.Base)
		for col := 0; col < raw; col++ {
			sa, sb := seq.Stats(a, col), par.Stats(b, col)
			if sa.N != sb.N {
				t.Fatalf("%s col %d: stats N %d != %d", where, col, sa.N, sb.N)
			}
			if sa.Sum() != sb.Sum() {
				t.Fatalf("%s col %d: stats Sum %v != %v", where, col, sa.Sum(), sb.Sum())
			}
			if sa.Min != sb.Min || sa.Max != sb.Max {
				t.Fatalf("%s col %d: min/max (%v,%v) != (%v,%v)", where, col, sa.Min, sa.Max, sb.Min, sb.Max)
			}
			if sa.Mean() != sb.Mean() {
				t.Fatalf("%s col %d: mean %v != %v", where, col, sa.Mean(), sb.Mean())
			}
			if sa.StdDev() != sb.StdDev() {
				t.Fatalf("%s col %d: stddev %v != %v", where, col, sa.StdDev(), sb.StdDev())
			}
			if fa, fb := sa.ImbalanceFactor(), sb.ImbalanceFactor(); fa != fb {
				t.Fatalf("%s col %d: imbalance factor %v != %v", where, col, fa, fb)
			}
		}
		if len(a.Children) != len(b.Children) {
			t.Fatalf("%s: %d children != %d", where, len(a.Children), len(b.Children))
		}
		for i := range a.Children {
			walk(a.Children[i], b.Children[i], where)
		}
	}
	walk(seq.Tree.Root, par.Tree.Root, "")
}

func TestParallelMergeMatchesSequential(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, ranks := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) {
				doc, profs := workloadFixture(t, name, ranks)
				seq, err := profilesAt(1, doc, profs)
				if err != nil {
					t.Fatal(err)
				}
				par, err := profilesAt(8, doc, profs)
				if err != nil {
					t.Fatal(err)
				}
				sameTree(t, seq, par)
				// sameTree compared the root's statistics too; they are
				// every rank's program totals.
				root := seq.Tree.Root
				for col := 0; col < seq.Tree.Reg.Len(); col++ {
					if st := seq.Stats(root, col); st.N != int64(ranks) || st.Sum() != seq.Tree.Total(col) {
						t.Fatalf("root col %d: n=%d sum=%v, want %d ranks summing to %v",
							col, st.N, st.Sum(), ranks, seq.Tree.Total(col))
					}
				}
			})
		}
	}
}

// TestParallelMergeLargeTotals is the harness's row at the paper's scale:
// 1 024 ranks whose scope totals pass 1e8 events, so their squares pass
// 2^53 and float64 moments would round differently in each shard order.
// Rank r is one of toy's eight profiles with every count multiplied by
// 100 000 + r.
func TestParallelMergeLargeTotals(t *testing.T) {
	doc, base := workloadFixture(t, "toy", 8)
	profs := make([]*profile.Profile, 1024)
	for r := range profs {
		profs[r] = scaledProfile(base[r%len(base)], r, 100_000+uint64(r))
	}
	seq, err := profilesAt(1, doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := profilesAt(8, doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	main := seq.Tree.Root.Children[0]
	if st := seq.Stats(main, 0); st.N != 1024 || st.Min < 1e8 {
		t.Fatalf("%s: n=%d min=%v, want 1024 ranks past 1e8", main.Label(), st.N, st.Min)
	}
	sameTree(t, seq, par)
}

// scaledProfile copies p as the given rank with every count multiplied by
// scale.
func scaledProfile(p *profile.Profile, rank int, scale uint64) *profile.Profile {
	q := profile.NewProfile(p.Program, rank, p.Thread, p.Metrics)
	q.Fingerprint = p.Fingerprint
	var path []uint64
	var walk func(n *profile.Node)
	walk = func(n *profile.Node) {
		for _, row := range n.Samples() {
			for m, c := range row.Counts {
				if c != 0 {
					q.Record(path, row.PC, m, c*scale)
				}
			}
		}
		for _, c := range n.Children() {
			path = append(path, c.CallPC)
			walk(c)
			path = path[:len(path)-1]
		}
	}
	walk(p.Root)
	return q
}

// TestCombineUnevenShards exercises reductions whose shard counts are not
// powers of two (odd blocks ride along a round) and shards holding zero
// ranks (Fold clamps its workers to the inputs, but Combine must also
// cope).
func TestCombineUnevenShards(t *testing.T) {
	doc, profs := workloadFixture(t, "toy", 7)
	seq, err := profilesAt(1, doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 3, 5, 7, 64} {
		accs := []*Accumulator{}
		step := (len(profs) + jobs - 1) / jobs
		for lo := 0; lo < len(profs); lo += step {
			hi := lo + step
			if hi > len(profs) {
				hi = len(profs)
			}
			acc := NewAccumulator(doc)
			for _, p := range profs[lo:hi] {
				if err := acc.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			accs = append(accs, acc)
		}
		// An empty trailing shard must be absorbed silently.
		accs = append(accs, NewAccumulator(doc))
		acc, err := Combine(accs)
		if err != nil {
			t.Fatal(err)
		}
		par, err := acc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		sameTree(t, seq, par)
	}
}

func TestMergeConsumesOther(t *testing.T) {
	doc, profs := workloadFixture(t, "toy", 2)
	a, b := NewAccumulator(doc), NewAccumulator(doc)
	if err := a.Add(profs[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(profs[1]); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(profs[1]); err == nil {
		t.Fatal("Add on a consumed accumulator accepted")
	}
	if err := a.Merge(b); err == nil {
		t.Fatal("Merge of a consumed accumulator accepted")
	}
	res, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.NRanks != 2 {
		t.Fatalf("NRanks = %d, want 2", res.NRanks)
	}
	if _, err := Combine(nil); err == nil {
		t.Fatal("Combine of nothing accepted")
	}
}

// TestConcurrentStatsReadsDuringAddSummaries locks down the documented
// concurrency contract: Result.Stats is read-only after Finish and may be
// called from any number of goroutines while AddSummaries registers and
// fills summary columns. Run under -race.
func TestConcurrentStatsReadsDuringAddSummaries(t *testing.T) {
	doc, profs := workloadFixture(t, "pflotran", 16)
	res, err := Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*core.Node
	core.Walk(res.Tree.Root, func(n *core.Node) bool {
		nodes = append(nodes, n)
		return true
	})
	raw := res.Tree.Reg.Len()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink float64
			for _, n := range nodes {
				for col := 0; col < raw; col++ {
					st := res.Stats(n, col)
					sink += st.Mean() + st.StdDev() + st.ImbalanceFactor()
				}
			}
			_ = sink
		}()
	}
	if err := res.AddSummaries(0, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// renderAll renders the three views plus summary columns into one byte
// stream — the determinism probe.
func renderAll(t *testing.T, name string, ranks, procs int) []byte {
	t.Helper()
	doc, profs := workloadFixture(t, name, ranks)
	res, err := profilesAt(procs, doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := render.RenderTree(&buf, res.Tree, render.Options{}); err != nil {
		t.Fatal(err)
	}
	cv := core.BuildCallersView(res.Tree)
	if err := render.RenderCallers(&buf, cv, res.Tree, render.Options{}); err != nil {
		t.Fatal(err)
	}
	fv := core.BuildFlatView(res.Tree)
	if err := render.RenderFlat(&buf, fv, res.Tree, render.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineDeterministic runs the whole pipeline twice — simulate,
// merge in parallel, summarize, render all three views — and diffs the
// rendered bytes, so any map-iteration or scheduling order leaking into
// the output fails loudly. A third run with a different worker count must
// render identically too.
func TestPipelineDeterministic(t *testing.T) {
	first := renderAll(t, "pflotran", 16, 8)
	second := renderAll(t, "pflotran", 16, 8)
	if !bytes.Equal(first, second) {
		t.Fatal("two identical pipeline runs rendered different bytes")
	}
	sequential := renderAll(t, "pflotran", 16, 1)
	if !bytes.Equal(first, sequential) {
		t.Fatal("GOMAXPROCS 8 and 1 rendered different bytes")
	}
}
