// TestCounters is the repository's ruler for counts; `go run ./bench` is
// its ruler for time. Every row of testdata/counters.json is one
// deterministic count of one layer at a fixed seed and at the GOMAXPROCS
// the row records: the mallocs and bytes one warm run allocates, the v3
// sections a stage reads, or an exact size (scopes, encoded bytes,
// rendered bytes). Sizes and read counts must match exactly; mallocs and
// allocated bytes may move by allocTolerance, because map growth and
// sync.Pool refills round differently from one run to the next.
//
// Rows whose claim is a shape (the paper's §VII "we store and process data
// only when needed", and the flat costs the layers promise) are checked
// against a bound stated in counterShapes as well as against the file.
//
// After an intended change, rewrite the file with
//
//	go test -run TestCounters -update .
//
// and say in the change which rows moved and why.
package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/pprofio"
	"repro/internal/profile"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/source"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.json")

const countersPath = "testdata/counters.json"

// allocTolerance bounds how far a row's mallocs or allocated bytes may
// move from the recorded value.
const allocTolerance = 0.05

// raceMovedRows are the rows whose mallocs and allocated bytes a -race
// build moves, so a race build compares only their sizes. The race
// instrumentation turns off the compiler's allocation-free form of
// append(s, make([]T, n)...), which merge.grown and the correlator's
// per-sample value row use, under both merge groups; report.build formats
// with fmt, whose printer cache is a sync.Pool that race builds drop from
// at random.
var raceMovedRows = []string{"merge.summarized/", "merge.fold/", "report.build/"}

// raceMoved reports whether r is an allocation row that a -race build moves.
func raceMoved(r counterRow) bool {
	if !raceEnabled || !r.approx() {
		return false
	}
	for _, p := range raceMovedRows {
		if strings.HasPrefix(r.Row, p) {
			return true
		}
	}
	return false
}

// allocRuns is how many warm runs a row's allocations are the least of.
const allocRuns = 3

// A counterRow is one recorded count.
type counterRow struct {
	Row        string `json:"row"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Value      uint64 `json:"value"`
}

// approx reports whether a row may move by allocTolerance.
func (r counterRow) approx() bool {
	return strings.HasSuffix(r.Row, "/mallocs") || strings.HasSuffix(r.Row, "/alloc_bytes")
}

// counts collects one group's rows.
type counts struct {
	t     *testing.T
	procs int
	rows  []counterRow
}

// exact records a size or read count.
func (c *counts) exact(row string, v int) {
	c.rows = append(c.rows, counterRow{Row: row, GOMAXPROCS: c.procs, Value: uint64(v)})
}

// allocs records row/mallocs and row/alloc_bytes: what one run of f
// allocates, the least of allocRuns runs after one that warms what f
// caches (interned symbols, grown scratch buffers, evaluated slabs). The
// least, because what else allocates meanwhile (a sync.Pool refilled
// after a collection, the runtime's own bookkeeping) only ever adds.
func (c *counts) allocs(row string, f func()) {
	f()
	mallocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < allocRuns; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	c.exact(row+"/mallocs", int(mallocs))
	c.exact(row+"/alloc_bytes", int(bytes))
}

// sectionKinds are the v3 section kinds that MappedDB.SectionReads counts.
var sectionKinds = []string{"index", "strings", "header", "metrics", "tree", "column", "provenance"}

// reads records the v3 sections read so far, one row per section kind.
func (c *counts) reads(row string, db *expdb.MappedDB) {
	r := db.SectionReads()
	for _, k := range sectionKinds {
		c.exact(row+"/reads."+k, r[k])
		delete(r, k)
	}
	if len(r) != 0 {
		c.t.Fatalf("%s: reads of unlisted section kinds %v", row, r)
	}
}

func (c *counts) check(err error) {
	c.t.Helper()
	if err != nil {
		c.t.Fatal(err)
	}
}

// byteCount is a sink that counts what is written to it.
type byteCount int

func (w *byteCount) Write(p []byte) (int, error) { *w += byteCount(len(p)); return len(p), nil }

// A counterGroup measures a layer's rows at one GOMAXPROCS.
type counterGroup struct {
	procs int
	run   func(c *counts)
}

var counterGroups = []counterGroup{
	{1, coreCounters},
	{1, mergeCounters},
	{2, foldCounters}, {4, foldCounters}, {8, foldCounters},
	{1, expdbCounters},
	{1, renderCounters},
	{2, sessionCounters},
	{1, catalogCounters},
	{1, diffCounters},
	{1, reportCounters},
}

var scaleSizes = []int{1_000, 10_000, 100_000}

// coreCounters: the CCT, its views and the hot path (E-SCALE-CCT,
// E-SCALE-LAZY), Eq. 1–2 and formula evaluation.
func coreCounters(c *counts) {
	c.allocs("core.build_cct/n=50000", func() { syntheticCCT(50_000, 42) })
	c.exact("core.build_cct/n=50000/scopes", syntheticCCT(50_000, 42).NumNodes())

	lookup := syntheticCCT(20_000, 7)
	c.allocs("core.child_lookup/n=20000", func() {
		core.Walk(lookup.Root, func(n *core.Node) bool {
			if n.Kind != core.KindRoot && n.Parent.Child(n.Key, false) != n {
				c.t.Fatal("child lookup missed")
			}
			return true
		})
	})

	for _, n := range scaleSizes {
		t := syntheticCCT(n, 42)
		c.exact(fmt.Sprintf("core.tree/n=%d/scopes", n), t.NumNodes())
		c.allocs(fmt.Sprintf("core.compute_metrics/n=%d", n), t.ComputeMetrics)
		c.allocs(fmt.Sprintf("core.flat_view/n=%d", n), func() { core.BuildFlatView(t) })
		var path int
		c.allocs(fmt.Sprintf("core.hot_path/n=%d", n), func() {
			path = len(core.HotPath(t.Root, 0, core.DefaultHotPathThreshold))
		})
		c.exact(fmt.Sprintf("core.hot_path/n=%d/length", n), path)
	}

	t := syntheticCCT(100_000, 7)
	c.allocs("core.callers/n=100000/roots", func() { core.BuildCallersView(t) })
	c.allocs("core.callers/n=100000/expand_one", func() {
		cv := core.BuildCallersView(t)
		cv.Expand(cv.Roots[0])
	})
	c.allocs("core.callers/n=100000/expand_all", func() { core.BuildCallersView(t).ExpandAll() })
	c.exact("core.callers/n=100000/roots", len(core.BuildCallersView(t).Roots))

	spec, err := workloads.ByName("s3d")
	c.check(err)
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	c.check(err)
	c.allocs("lower.fingerprint/s3d", func() { im.Fingerprint() })

	expr := metric.MustParse("$0*4 - $1 + min($2, $0/2)")
	env := metric.EnvFunc(func(id int) float64 { return float64(id + 1) })
	c.allocs("metric.formula_eval", func() {
		if _, err := expr.Eval(env); err != nil {
			c.t.Fatal(err)
		}
	})
}

type mpiRun struct {
	doc   *structfile.Doc
	profs []*profile.Profile
}

// mpiRuns caches TestCounters' pflotran MPI runs by rank count: simulating
// 64 ranks is the slowest fixture here, and three groups read it.
var mpiRuns = map[int]mpiRun{}

func pflotranRun(t testing.TB, ranks int) (*structfile.Doc, []*profile.Profile) {
	r, ok := mpiRuns[ranks]
	if !ok {
		r.doc, r.profs = mustMPIProfiles(t, "pflotran", ranks)
		mpiRuns[ranks] = r
	}
	return r.doc, r.profs
}

// mergeCounters: the measurement path (E-SCALE-MERGE): the merge with
// summary statistics over 4, 16 and 64 ranks, the measurement-file codec
// and the sampler's trie insert.
func mergeCounters(c *counts) {
	for _, ranks := range []int{4, 16, 64} {
		doc, profs := pflotranRun(c.t, ranks)
		var scopes int
		c.allocs(fmt.Sprintf("merge.summarized/ranks=%d", ranks), func() {
			res, err := merge.Profiles(doc, profs)
			c.check(err)
			c.check(res.AddSummaries(0, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev))
			scopes = res.Tree.NumNodes()
		})
		c.exact(fmt.Sprintf("merge.summarized/ranks=%d/scopes", ranks), scopes)
	}
	foldCounters(c)

	_, profs := pflotranRun(c.t, 64)
	var buf bytes.Buffer
	var encoded int
	c.allocs("profile.codec/ranks=64", func() {
		encoded = 0
		for _, p := range profs {
			buf.Reset()
			c.check(p.Write(&buf))
			encoded += buf.Len()
			_, err := profile.Read(bytes.NewReader(buf.Bytes()))
			c.check(err)
		}
	})
	c.exact("profile.codec/ranks=64/encoded_bytes", encoded)

	// A new profile takes 512 contexts (depth up to 12 over a 24-address
	// alphabet, so prefixes are shared), the first sample of each creating
	// its frames and row, seven more finding them.
	rng := rand.New(rand.NewSource(1))
	type context struct {
		path []uint64
		leaf uint64
	}
	contexts := make([]context, 512)
	for i := range contexts {
		path := make([]uint64, rng.Intn(13))
		for j := range path {
			path[j] = 0x400000 + 8*uint64(rng.Intn(24))
		}
		contexts[i] = context{path, 0x500000 + 4*uint64(rng.Intn(24))}
	}
	metrics := []profile.MetricInfo{{Name: "CYCLES", Unit: "cycles", Period: 1000}, {Name: "L1_DCM", Unit: "misses", Period: 100}}
	c.allocs("profile.record/contexts=512", func() {
		p := profile.NewProfile("counters", 0, 0, metrics)
		for round := 0; round < 8; round++ {
			for _, ctx := range contexts {
				p.Record(ctx.path, ctx.leaf, round&1, 1000)
			}
		}
	})
}

// foldCounters: merge.Profiles over 64 ranks without summaries, at the
// group's GOMAXPROCS, which is merge.Fold's worker count.
func foldCounters(c *counts) {
	doc, profs := pflotranRun(c.t, 64)
	c.allocs(fmt.Sprintf("merge.fold/ranks=64/procs=%d", c.procs), func() {
		_, err := merge.Profiles(doc, profs)
		c.check(err)
	})
}

// writeDB writes e in the chosen format into dir and returns the path.
func writeDB(c *counts, dir, name string, write func(io.Writer) error) string {
	var buf bytes.Buffer
	c.check(write(&buf))
	path := filepath.Join(dir, name)
	c.check(os.WriteFile(path, buf.Bytes(), 0o644))
	return path
}

// hotQuery opens a session over snap, answers the hot path over CYCLES
// (the first question a user asks) and closes it.
func hotQuery(c *counts, snap *engine.Snapshot) {
	s := engine.NewSession(snap)
	defer s.Close()
	if resp := s.Do(engine.Request{Line: "hot CYCLES"}); resp.Err != "" || resp.Output == "" {
		c.t.Fatalf("hot CYCLES: %q err=%s", resp.Output, resp.Err)
	}
}

// expdbCounters: the database formats (E-FMT) and the open paths: the v2
// decode and the mapped v3 open, which reads the section index and nothing
// else.
func expdbCounters(c *counts) {
	moab := expdb.New(mustSeqTree(c.t, "moab"))
	var xml, v2, v3 bytes.Buffer
	c.check(moab.WriteXML(&xml))
	c.check(moab.WriteBinary(&v2))
	c.check(moab.WriteBinaryV3(&v3))
	c.exact("expdb.moab/xml_bytes", xml.Len())
	c.exact("expdb.moab/v2_bytes", v2.Len())
	c.exact("expdb.moab/v3_bytes", v3.Len())
	c.allocs("expdb.read_v2/moab", func() {
		_, err := expdb.Read(bytes.NewReader(v2.Bytes()))
		c.check(err)
	})

	dir := c.t.TempDir()
	for _, n := range []int{10_000, 100_000} {
		e := expdb.New(syntheticCCT(n, 13))
		v3path := writeDB(c, dir, fmt.Sprintf("synth%d.v3.db", n), e.WriteBinaryV3)
		c.allocs(fmt.Sprintf("expdb.open_mapped/n=%d", n), func() {
			db, err := expdb.OpenMapped(v3path)
			c.check(err)
			c.check(db.Close())
		})
		if n != 100_000 {
			continue
		}
		db, err := expdb.OpenMapped(v3path)
		c.check(err)
		c.reads("expdb.open_mapped/n=100000/open", db)
		snap, err := engine.NewMappedSnapshot(db)
		c.check(err)
		hotQuery(c, snap)
		c.reads("expdb.open_mapped/n=100000/first_query", db)
		c.check(snap.Close())

		v2path := writeDB(c, dir, "synth.v2.db", e.WriteBinary)
		c.allocs("engine.open_v2/n=100000", func() {
			_, err := engine.Open(v2path)
			c.check(err)
		})
		c.allocs("engine.first_query_v3/n=100000", func() {
			snap, err := engine.Open(v3path)
			c.check(err)
			hotQuery(c, snap)
			c.check(snap.Close())
		})
		c.allocs("engine.first_query_v2/n=100000", func() {
			snap, err := engine.Open(v2path)
			c.check(err)
			hotQuery(c, snap)
			c.check(snap.Close())
		})
	}
}

// rowPathCCT is the row path's database: the 60k-scope synthetic CCT with
// three more raw columns, each set on a thinning share of the statements
// like the end-to-end benchmark's, so a line has eight cells and some of
// them blank.
func rowPathCCT(c *counts) *core.Tree {
	t := syntheticCCT(60_000, 17)
	for _, name := range []string{"M1", "M2", "M3"} {
		_, err := t.Reg.AddRaw(name, "events", 1)
		c.check(err)
	}
	rng := rand.New(rand.NewSource(17))
	core.Walk(t.Root, func(n *core.Node) bool {
		if n.Kind == core.KindStmt {
			for col := 1; col < 4; col++ {
				if rng.Intn(1<<col) == 0 {
					n.Base.Add(col, float64(rng.Intn(100)+1))
				}
			}
		}
		return true
	})
	t.ComputeMetrics()
	return t
}

// renderCounters: the row path and the renderings (E-RENDER).
func renderCounters(c *counts) {
	t := rowPathCCT(c)
	snap := engine.NewSnapshot(expdb.New(t))
	s := engine.NewSession(snap)
	c.check(s.ExpandAll(t.Root))
	rows := s.VisibleRows()
	s.Close()
	c.exact("render.rows/n=60000/rows", len(rows))
	var out byteCount
	c.allocs("render.rows/n=60000", func() {
		out = 0
		c.check(render.RenderRows(&out, rows, t.Reg, render.Options{Totals: t.Total}))
	})
	c.exact("render.rows/n=60000/rendered_bytes", int(out))
	c.allocs("engine.expandall/n=60000", func() {
		out = 0
		s := engine.NewSession(snap)
		_, err := engine.Exec(s, "expandall", &out)
		c.check(err)
		s.Close()
	})
	c.exact("engine.expandall/n=60000/rendered_bytes", int(out))

	t = syntheticCCT(10_000, 3)
	for _, v := range []struct {
		name string
		opt  render.Options
	}{{"full", render.Options{}}, {"top5_depth6", render.Options{TopN: 5, MaxDepth: 6}}} {
		c.allocs("render.cct/n=10000/"+v.name, func() {
			out = 0
			c.check(render.RenderTree(&out, t, v.opt))
		})
		c.exact("render.cct/n=10000/"+v.name+"/rendered_bytes", int(out))
	}
	fv := core.BuildFlatView(t)
	c.allocs("render.flat/n=10000", func() {
		out = 0
		c.check(render.RenderFlat(&out, fv, t, render.Options{}))
	})
	c.exact("render.flat/n=10000/rendered_bytes", int(out))
	// hpcviewer -html's three-view report from a fresh snapshot, so the
	// Callers and Flat Views are built in every run.
	c.allocs("engine.html/n=10000", func() {
		out = 0
		snap := engine.NewSnapshot(expdb.New(t))
		s := engine.NewSession(snap)
		s.SetLimits(10, 8)
		c.check(s.RenderHTML(&out, "synth", 0))
		s.Close()
		snap.Close()
	})
	c.exact("engine.html/n=10000/rendered_bytes", int(out))

	big := engine.NewSession(engine.NewSnapshot(expdb.New(syntheticCCT(100_000, 5))))
	big.HotPath(0) // expand a realistic working set
	c.allocs("engine.visible_rows/n=100000", func() { rows = big.VisibleRows() })
	c.exact("engine.visible_rows/n=100000/rows", len(rows))
	big.Close()
	snap.Close()
}

// sessionCounters: N sessions share one snapshot of a 20k-scope CCT, each
// running a full interaction at once (a private derived metric, the hot
// path, a sort by the derived column, the visible rows and a render).
func sessionCounters(c *counts) {
	snap := engine.NewSnapshot(expdb.New(syntheticCCT(20_000, 11)))
	interact := func() error {
		s := engine.NewSession(snap)
		defer s.Close()
		if err := s.AddDerivedMetric("w", "$0*4 - $0/2"); err != nil {
			return err
		}
		if len(s.HotPath(0)) == 0 {
			return fmt.Errorf("empty hot path")
		}
		s.SetSort(core.SortSpec{MetricID: s.Registry().ByName("w").ID})
		if len(s.VisibleRows()) == 0 {
			return fmt.Errorf("no rows")
		}
		return s.Render(io.Discard, render.Options{})
	}
	for _, n := range []int{1, 8, 32} {
		c.allocs(fmt.Sprintf("engine.sessions/n=%d", n), func() {
			var wg sync.WaitGroup
			errs := make([]error, n)
			for j := range errs {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					errs[j] = interact()
				}(j)
			}
			wg.Wait()
			for _, err := range errs {
				c.check(err)
			}
		})
	}
}

// catalogCounters: one full session (acquire by name, open a session, run
// the hot path, close, release) over a warm catalog of 1 and of 100
// published databases, resolved round-robin.
func catalogCounters(c *counts) {
	e := expdb.New(syntheticCCT(2_000, 17))
	var db bytes.Buffer
	c.check(e.WriteBinaryV3(&db))
	dir := c.t.TempDir()
	for _, n := range []int{1, 100} {
		cat := catalog.New(catalog.Config{})
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("svc%03d", i)
			path := filepath.Join(dir, fmt.Sprintf("%s_%d__1.db", names[i], n))
			c.check(os.WriteFile(path, db.Bytes(), 0o644))
			c.check(cat.Publish(catalog.Key{Service: names[i], Ts: 1}, path))
		}
		// Warm: every generation open and cached, as a serving steady
		// state has it; open cost is expdb.open_mapped's row.
		session := func(name string) {
			snap, _, err := cat.Acquire(name)
			c.check(err)
			hotQuery(c, snap)
			c.check(snap.Release())
		}
		for _, name := range names {
			session(name)
		}
		next := 0
		c.allocs(fmt.Sprintf("catalog.session/dbs=%d", n), func() {
			session(names[next%n])
			next++
		})
		cat.Close()
	}
}

// diffCounters: the structural union of two fixed-seed 50k-scope
// experiments at rank counts that select weak scaling, and the gather of
// every per-input column.
func diffCounters(c *counts) {
	mk := func(seed int64, ranks int) *expdb.Experiment {
		e := expdb.New(syntheticCCT(50_000, seed))
		e.NRanks = ranks
		return e
	}
	a, b := mk(1, 4), mk(2, 16)
	var scopes int
	c.allocs("diff.union/n=50000", func() {
		res, err := diff.Diff(diff.Config{}, diff.Input{Label: "A", Exp: a}, diff.Input{Label: "B", Exp: b})
		c.check(err)
		scopes = res.Tree.NumNodes()
	})
	c.exact("diff.union/n=50000/scopes", scopes)
}

// reportCounters: the pprof bridge and the unattended report over the
// merged pflotran experiment with mean and max summary columns, against
// an 8-rank baseline.
func reportCounters(c *counts) {
	merged := func(ranks int, summaries bool) *expdb.Experiment {
		res, err := merge.Profiles(pflotranRun(c.t, ranks))
		c.check(err)
		if summaries {
			c.check(res.AddSummaries(res.Tree.Reg.ByName("CYCLES").ID, metric.OpMean, metric.OpMax))
		}
		return expdb.FromMerge(res)
	}
	var gz bytes.Buffer
	c.check(pprofio.Export(merged(16, false), &gz))
	c.exact("pprofio.export/ranks=16/encoded_bytes", gz.Len())
	c.allocs("pprofio.import/ranks=16", func() {
		im, err := pprofio.Import(bytes.NewReader(gz.Bytes()))
		c.check(err)
		_, err = source.BuildTree(im)
		c.check(err)
	})

	exp, base := merged(16, true), merged(8, true)
	var js, md int
	c.allocs("report.build/ranks=16", func() {
		r, err := report.Build(exp, report.Options{Baseline: base})
		c.check(err)
		b, err := r.JSON()
		c.check(err)
		js, md = len(b), len(r.Markdown())
	})
	c.exact("report.build/ranks=16/json_bytes", js)
	c.exact("report.build/ranks=16/markdown_bytes", md)
}

// A counterShape is a claim about how rows relate, with the bound that
// the test states for it.
type counterShape struct {
	claim string
	check func(v func(row string) float64) error
}

// atMost fails unless v(row) <= bound.
func atMost(v func(string) float64, row string, bound float64, why string) error {
	if got := v(row); got > bound {
		return fmt.Errorf("%s = %v, above %v (%s)", row, got, bound, why)
	}
	return nil
}

var counterShapes = []counterShape{
	{"§VII lazy Callers View: the root rows of a 10⁵-scope CCT cost under 1/20 of the eager expansion, and expanding one root at most doubles them",
		func(v func(string) float64) error {
			for _, k := range []string{"mallocs", "alloc_bytes"} {
				eager := v("core.callers/n=100000/expand_all/" + k)
				lazy := "core.callers/n=100000/roots/" + k
				if err := atMost(v, lazy, eager/20, "1/20 of expand_all"); err != nil {
					return err
				}
				if err := atMost(v, "core.callers/n=100000/expand_one/"+k, 2*v(lazy), "twice roots"); err != nil {
					return err
				}
			}
			return nil
		}},
	{"§VII metric computation (Eq. 1–2) allocates nothing at 10³, 10⁴ and 10⁵ scopes",
		func(v func(string) float64) error {
			for _, n := range scaleSizes {
				if err := atMost(v, fmt.Sprintf("core.compute_metrics/n=%d/alloc_bytes", n), 0, "a sweep over the slabs"); err != nil {
					return err
				}
			}
			return nil
		}},
	{"§VII Flat View per-scope cost does not grow from 10³ to 10⁴ to 10⁵ scopes (at most 1.25× per decade)",
		func(v func(string) float64) error { return perDecade(v, "core.flat_view", 1.25) }},
	{"§VII hot path is O(path × fan-out): its allocations at 10⁴ and 10⁵ scopes are at most twice those at 10³",
		func(v func(string) float64) error {
			for _, n := range scaleSizes[1:] {
				if err := atMost(v, fmt.Sprintf("core.hot_path/n=%d/mallocs", n), 2*v("core.hot_path/n=1000/mallocs"), "twice n=1000"); err != nil {
					return err
				}
			}
			return nil
		}},
	{"§VII summarization: merging 64 ranks allocates at most 3× what merging 4 does (16× the ranks)",
		func(v func(string) float64) error {
			return atMost(v, "merge.summarized/ranks=64/mallocs", 3*v("merge.summarized/ranks=4/mallocs"), "3× ranks=4")
		}},
	{"§VII focus discipline: a top-5, depth-6 render of a 10⁴-scope CCT writes under 1/20 of the full render",
		func(v func(string) float64) error {
			return atMost(v, "render.cct/n=10000/top5_depth6/rendered_bytes", v("render.cct/n=10000/full/rendered_bytes")/20, "1/20 of full")
		}},
	{"the mapped v3 open is O(index): the same allocations at 10⁴ and 10⁵ scopes, and it reads only the index",
		func(v func(string) float64) error {
			if a, b := v("expdb.open_mapped/n=10000/mallocs"), v("expdb.open_mapped/n=100000/mallocs"); a != b {
				return fmt.Errorf("expdb.open_mapped/n=100000/mallocs = %v, n=10000 = %v, want equal", b, a)
			}
			for _, k := range sectionKinds[1:] {
				if err := atMost(v, "expdb.open_mapped/n=100000/open/reads."+k, 0, "the open reads the index alone"); err != nil {
					return err
				}
			}
			return nil
		}},
	{"the row path allocates nothing per row: under 1 allocation per 1 000 rows rendered or expanded",
		func(v func(string) float64) error {
			rows := v("render.rows/n=60000/rows")
			if err := atMost(v, "render.rows/n=60000/mallocs", rows/1000, "rows/1000"); err != nil {
				return err
			}
			return atMost(v, "engine.expandall/n=60000/mallocs", rows/100, "rows/100")
		}},
	{"sessions sharing one snapshot: per-session allocations at 8 and 32 sessions within 5% of one session's",
		func(v func(string) float64) error {
			one := v("engine.sessions/n=1/mallocs")
			for _, n := range []float64{8, 32} {
				if err := atMost(v, fmt.Sprintf("engine.sessions/n=%v/mallocs", n), 1.05*n*one, "n × 1.05 × one session"); err != nil {
					return err
				}
			}
			return nil
		}},
	{"the catalog adds no per-database cost: a session over 100 databases allocates what one over 1 does",
		func(v func(string) float64) error {
			if a, b := v("catalog.session/dbs=1/mallocs"), v("catalog.session/dbs=100/mallocs"); a != b {
				return fmt.Errorf("catalog.session/dbs=100/mallocs = %v, dbs=1 = %v, want equal", b, a)
			}
			return nil
		}},
}

// perDecade checks that row/n=N/{mallocs,alloc_bytes} per scope grows by at
// most bound from one size to the next.
func perDecade(v func(string) float64, row string, bound float64) error {
	for i := 1; i < len(scaleSizes); i++ {
		n0, n1 := scaleSizes[i-1], scaleSizes[i]
		for _, k := range []string{"mallocs", "alloc_bytes"} {
			r0, r1 := fmt.Sprintf("%s/n=%d/%s", row, n0, k), fmt.Sprintf("%s/n=%d/%s", row, n1, k)
			s0 := v(fmt.Sprintf("core.tree/n=%d/scopes", n0))
			s1 := v(fmt.Sprintf("core.tree/n=%d/scopes", n1))
			if err := atMost(v, r1, bound*v(r0)*s1/s0, fmt.Sprintf("%v× %s per scope", bound, r0)); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestCounters(t *testing.T) {
	var got []counterRow
	for _, g := range counterGroups {
		prev := runtime.GOMAXPROCS(g.procs)
		c := &counts{t: t, procs: g.procs}
		g.run(c)
		runtime.GOMAXPROCS(prev)
		got = append(got, c.rows...)
	}
	byName := map[string]counterRow{}
	for _, r := range got {
		if _, dup := byName[r.Row]; dup {
			t.Fatalf("row %s measured twice", r.Row)
		}
		byName[r.Row] = r
	}
	v := func(row string) float64 {
		r, ok := byName[row]
		if !ok {
			t.Fatalf("shape reads row %s, which no group measures", row)
		}
		return float64(r.Value)
	}
	for _, s := range counterShapes {
		if err := s.check(v); err != nil {
			t.Errorf("%s: %v", s.claim, err)
		}
	}

	if *update {
		if raceEnabled {
			t.Fatalf("a -race build moves the rows %v: rewrite %s without it", raceMovedRows, countersPath)
		}
		var b strings.Builder
		b.WriteString("[\n")
		for i, r := range got {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			if i < len(got)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.WriteFile(countersPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(countersPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []counterRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", countersPath, err)
	}
	for _, w := range want {
		g, ok := byName[w.Row]
		switch {
		case !ok:
			t.Errorf("%s: recorded in %s, but no group measures it", w.Row, countersPath)
		case g.GOMAXPROCS != w.GOMAXPROCS:
			t.Errorf("%s: measured at GOMAXPROCS %d, recorded at %d", w.Row, g.GOMAXPROCS, w.GOMAXPROCS)
		case raceMoved(w):
		case w.approx():
			lo, hi := float64(w.Value)*(1-allocTolerance), float64(w.Value)*(1+allocTolerance)
			if f := float64(g.Value); f < lo || f > hi {
				t.Errorf("%s: %d, recorded %d (±%.0f%%)", w.Row, g.Value, w.Value, 100*allocTolerance)
			}
		case g.Value != w.Value:
			t.Errorf("%s: %d, recorded %d (exact)", w.Row, g.Value, w.Value)
		}
		delete(byName, w.Row)
	}
	for _, r := range got {
		if _, ok := byName[r.Row]; ok {
			t.Errorf("%s: measured but not recorded in %s (rerun with -update)", r.Row, countersPath)
		}
	}
}
