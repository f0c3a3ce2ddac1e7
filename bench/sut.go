package main

// sut.go is the only file of the benchmark that calls into the system
// under test. It calls what the cmd/* mains call, in the order they call
// it: hpcrun (lower, mpi.Run, profile.Write), hpcstruct (Recover,
// WriteXML), hpcprof (ReadXML, per-shard Accumulator.Add, Combine, Finish,
// AddSummaries, FromMerge, WriteFileAtomic+WriteBinaryV3; and, for
// generated trees, the -pprof route source.BuildTree), hpcviewer (Open,
// NewSession, Exec; expdb.Read and the batch renderers), hpcdiff (Read,
// Diff, Report, WriteText) and hpcserver (catalog.New, LoadDir,
// server.NewWithConfig, Handler). It names nothing ROADMAP marks for
// deletion (OpenLazy, NewLazySnapshot, NewTreeSnapshot, ReadBinary,
// internal/viewer, metric.Vector).
//
// Beyond those sequences it uses, as inputs or probes the issue asks for by
// name: the prog builder (the only way to make a program), Result.Recompute,
// correlate.Correlate, Snapshot.FaultAll, expdb.OpenMapped and the
// catalog's Acquire/Ingest/EvictAll/Stats.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/bench/gen"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/render"
	"repro/internal/sampler"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/structfile"
)

// --- inputs ---------------------------------------------------------------

func sutStmts(self string, in []gen.Stmt) []prog.Stmt {
	out := make([]prog.Stmt, len(in))
	for i, s := range in {
		switch s.Kind {
		case gen.Work:
			out[i] = prog.W(s.Line, s.Cycles)
		case gen.Loop:
			trips := prog.IntExpr(prog.ConstInt(s.Trips))
			if s.Skew > 0 {
				trips = prog.HashInt{Seed: int64(s.Line), Lo: s.Trips, Hi: s.Trips + s.Skew}
			}
			out[i] = prog.Lx(s.Line, trips, sutStmts(self, s.Body)...)
		case gen.Call:
			out[i] = prog.C(s.Line, s.Callee)
		case gen.Recurse:
			out[i] = prog.IfDepth(s.Line, s.Depth, prog.C(s.Line, self))
		case gen.Barrier:
			out[i] = prog.Sync(s.Line)
		}
	}
	return out
}

func sutProgram(spec gen.ProgramSpec) (*prog.Program, error) {
	b := prog.NewBuilder(spec.Name).Module(spec.Name + ".exe")
	for _, p := range spec.Procs {
		b.File(p.File)
		if p.Inline {
			b.InlineProc(p.Name, p.Line, sutStmts(p.Name, p.Body)...)
		} else {
			b.Proc(p.Name, p.Line, sutStmts(p.Name, p.Body)...)
		}
	}
	return b.Entry("main").Build()
}

// cctSource presents a generated tree to source.BuildTree, the boundary
// hpcprof -pprof builds databases through.
type cctSource struct{ c gen.CCT }

func (s cctSource) Program() string           { return "synth" }
func (s cctSource) Identity() source.Identity { return source.Identity{} }

func (s cctSource) Metrics() []source.Metric {
	out := make([]source.Metric, s.c.Cols)
	for i := range out {
		out[i] = source.Metric{Name: fmt.Sprintf("M%d", i), Unit: "events", Period: 1}
	}
	return out
}

func (s cctSource) Samples(emit func(path []source.Scope, values []float64) error) error {
	kinds := map[gen.ScopeKind]core.Kind{gen.Frame: core.KindFrame, gen.LoopScope: core.KindLoop, gen.StmtScope: core.KindStmt}
	mod := core.Sym("synth.exe")
	var buf []source.Scope
	return s.c.Emit(func(path []gen.Scope, values []float64) error {
		buf = buf[:0]
		for _, g := range path {
			sc := source.Scope{Key: core.Key{Kind: kinds[g.Kind], Name: core.Sym(g.Name), File: core.Sym(g.File), Line: g.Line, ID: g.ID}}
			if g.Kind == gen.Frame {
				sc.Mod, sc.CallLine, sc.CallFile = mod, g.CallLine, core.Sym("caller.c")
			}
			buf = append(buf, sc)
		}
		return emit(buf, values)
	})
}

// sutWriteCCT builds the generated tree and publishes it as a v3 database.
func sutWriteCCT(c gen.CCT, ranks int, path string) (scopes int, err error) {
	tree, err := source.BuildTree(cctSource{c})
	if err != nil {
		return 0, err
	}
	exp := &expdb.Experiment{Program: "synth", NRanks: ranks, Tree: tree}
	err = expdb.WriteFileAtomic(path, func(f *os.File) error { return exp.WriteBinaryV3(f) })
	return tree.NumNodes(), err
}

// --- measure: hpcrun and hpcstruct ----------------------------------------

// samplePeriod is the base sampling period of the pipeline workload, in
// cycles.
const samplePeriod = 500

func sutLower(tr *tracer, p *prog.Program) (im *isa.Image, err error) {
	err = tr.do("lower.lower", func() error {
		im, err = lower.Lower(p, lower.Options{Inline: true})
		return err
	})
	return im, err
}

// sutRun executes the image on every rank. The sampler refuses to run
// without events, so "sampling off" is the same events at a period no run
// reaches: the observer stays attached and never takes a sample. That is
// the base of sampler.overhead_ratio.
func sutRun(tr *tracer, name string, im *isa.Image, ranks int, seed int64, sampling bool) (profs []*profile.Profile, err error) {
	events := sampler.DefaultEvents(1 << 62)
	if sampling {
		events = sampler.DefaultEvents(samplePeriod)
	}
	err = tr.do(name, func() error {
		profs, err = mpi.Run(im, mpi.Config{NRanks: ranks, Seed: seed, Events: events})
		return err
	})
	return profs, err
}

func sutWriteProfiles(tr *tracer, profs []*profile.Profile, dir string) (paths []string, size int64, err error) {
	err = tr.do("profile.write", func() error {
		for _, p := range profs {
			path := filepath.Join(dir, fmt.Sprintf("genprog-%06d-%03d.cpprof", p.Rank, p.Thread))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := p.Write(f); err != nil {
				f.Close()
				return err
			}
			if st, err := f.Stat(); err == nil {
				size += st.Size()
			}
			if err := f.Close(); err != nil {
				return err
			}
			paths = append(paths, path)
		}
		return nil
	})
	return paths, size, err
}

func sutWriteStructure(tr *tracer, im *isa.Image, path string) (scopes int, err error) {
	var doc *structfile.Doc
	if err = tr.do("structfile.recover", func() error {
		doc, err = structfile.Recover(im)
		return err
	}); err != nil {
		return 0, err
	}
	err = tr.do("structfile.write_xml", func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := doc.WriteXML(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	st := doc.Stats()
	return st.LMs + st.Files + st.Procs + st.Loops + st.Aliens + st.Stmts, err
}

// profileTotals sums every metric over every rank's profile.
func profileTotals(profs []*profile.Profile) (totals []float64, samples float64) {
	for _, p := range profs {
		for i, v := range p.Totals() {
			if i >= len(totals) {
				totals = append(totals, 0)
			}
			totals[i] += float64(v)
		}
		samples += float64(p.Stats().Samples)
	}
	return totals, samples
}

// --- analyze: hpcprof -----------------------------------------------------

func sutReadStructure(tr *tracer, path string) (doc *structfile.Doc, err error) {
	err = tr.do("structfile.read_xml", func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		doc, err = structfile.ReadXML(f)
		return err
	})
	return doc, err
}

// sutMerge is hpcprof's mergeFiles: jobs workers, each reading, folding
// and discarding the files of its contiguous shard one at a time, then the
// pairwise Combine and Finish.
func sutMerge(tr *tracer, doc *structfile.Doc, paths []string, jobs int) (res *merge.Result, err error) {
	jobs = min(jobs, len(paths))
	accs := make([]*merge.Accumulator, jobs)
	errs := make([]error, jobs)
	err = tr.do("merge.shards", func() error {
		var wg sync.WaitGroup
		for w := range accs {
			accs[w] = merge.NewAccumulator(doc)
			wtr := tr.fork()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, path := range paths[len(paths)*w/jobs : len(paths)*(w+1)/jobs] {
					var p *profile.Profile
					errs[w] = wtr.do("profile.read", func() error {
						f, err := os.Open(path)
						if err != nil {
							return err
						}
						defer f.Close()
						p, err = profile.Read(f)
						return err
					})
					if errs[w] == nil {
						errs[w] = wtr.do("merge.add", func() error { return accs[w].Add(p) })
					}
					if errs[w] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var acc *merge.Accumulator
	if err = tr.do("merge.combine", func() error {
		acc, err = merge.Combine(accs)
		return err
	}); err != nil {
		return nil, err
	}
	err = tr.do("merge.finish", func() error {
		res, err = acc.Finish()
		return err
	})
	return res, err
}

func sutSummaries(tr *tracer, res *merge.Result) error {
	return tr.do("metric.summaries", func() error {
		for _, d := range res.Tree.Reg.Columns() {
			if d.Kind != metric.Raw {
				continue
			}
			if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
				return err
			}
		}
		return nil
	})
}

// sutPublish writes the merged result as a v3 database, atomically. The
// encode span nests inside the atomic-write span, so the latter's self time
// is create + fsync + rename.
func sutPublish(tr *tracer, res *merge.Result, path string) (exp *expdb.Experiment, err error) {
	exp = expdb.FromMerge(res)
	err = tr.do("expdb.write_atomic", func() error {
		return expdb.WriteFileAtomic(path, func(f *os.File) error {
			return tr.do("expdb.encode_v3", func() error { return exp.WriteBinaryV3(f) })
		})
	})
	return exp, err
}

// --- present: hpcviewer ---------------------------------------------------

func sutOpen(tr *tracer, path string) (snap *engine.Snapshot, err error) {
	err = tr.do("engine.open", func() error {
		snap, err = engine.Open(path)
		return err
	})
	return snap, err
}

func sutSession(tr *tracer, snap *engine.Snapshot, jobs int) (s *engine.Session) {
	tr.do("engine.session_new", func() error {
		s = engine.NewSession(snap)
		s.SetJobs(jobs)
		return nil
	})
	return s
}

// sutExec runs one command line; a user-level error is an error here,
// because the scripts are fixed and every command must succeed.
func sutExec(tr *tracer, s *engine.Session, spanName, line string) (out []byte, err error) {
	var buf bytes.Buffer
	err = tr.do(spanName, func() error {
		_, err := engine.Exec(s, line, &buf)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", line, err)
	}
	return buf.Bytes(), nil
}

// execSpan names the span of a command: engine.exec.<command>, with view
// switches named after the view, and the derived-metric pair charged to the
// metric layer.
func execSpan(line string) string {
	f := strings.Fields(line)
	switch {
	case f[0] == "view":
		return "engine.exec." + f[1]
	case f[0] == "derived" || line == "sort r":
		return "metric.derived"
	}
	return "engine.exec." + f[0]
}

// sutReadDB is hpcviewer's and hpcdiff's eager open.
func sutReadDB(tr *tracer, spanName, path string) (exp *expdb.Experiment, err error) {
	err = tr.do(spanName, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		exp, err = expdb.Read(f)
		return err
	})
	return exp, err
}

// renderBatch renders the three views the way hpcviewer's batch mode does.
func renderBatch(exp *expdb.Experiment, jobs int) ([]byte, error) {
	var buf bytes.Buffer
	tree := exp.Tree
	opt := render.Options{Totals: tree.Total}
	if err := render.RenderTree(&buf, tree, opt); err != nil {
		return nil, err
	}
	cv := core.BuildCallersView(tree)
	if err := cv.ExpandAllParallel(jobs); err != nil {
		return nil, err
	}
	if err := render.RenderCallers(&buf, cv, tree, opt); err != nil {
		return nil, err
	}
	fv := core.BuildFlatView(tree)
	if err := render.Render(&buf, fv.Roots, tree.Reg, opt); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rawTotals returns, for every raw column, the root's inclusive value and
// the sum of the flat view's top-level exclusive values. The flat view
// counts a procedure's exclusive cost at its exposed instances only
// (Section IV-B), so the exclusive cost of frames nested inside another
// frame of the same procedure is added back: with it the two must be equal.
func rawTotals(exp *expdb.Experiment) (root, flatExcl []float64) {
	fv := core.BuildFlatView(exp.Tree)
	var nested []*core.Node
	var walk func(n *core.Node, onStack map[core.Key]int)
	walk = func(n *core.Node, onStack map[core.Key]int) {
		proc := core.Key{Kind: core.KindFrame, Name: n.Name, File: n.File}
		if n.Kind == core.KindFrame {
			if onStack[proc] > 0 {
				nested = append(nested, n)
			}
			onStack[proc]++
		}
		for _, c := range n.Children {
			walk(c, onStack)
		}
		if n.Kind == core.KindFrame {
			onStack[proc]--
		}
	}
	walk(exp.Tree.Root, map[core.Key]int{})
	for _, d := range exp.Tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		root = append(root, exp.Tree.Total(d.ID))
		sum := 0.0
		for _, n := range fv.Roots {
			sum += n.Excl.Get(d.ID)
		}
		for _, n := range nested {
			sum += n.Excl.Get(d.ID)
		}
		flatExcl = append(flatExcl, sum)
	}
	return root, flatExcl
}

// hotPathLabels runs the system's hot path (Equation 3, t = 50%) and a
// naive walk of the same definition, and returns the labels of both.
func hotPathLabels(snap *engine.Snapshot, metricName string) (system, naive []string, err error) {
	tree := snap.Tree()
	d := tree.Reg.ByName(metricName)
	if d == nil {
		return nil, nil, fmt.Errorf("no metric %q", metricName)
	}
	for _, n := range core.HotPath(tree.Root, d.ID, core.DefaultHotPathThreshold) {
		system = append(system, n.Label())
	}
	for n := tree.Root; n != nil; {
		naive = append(naive, n.Label())
		var best *core.Node
		for _, c := range n.Children {
			if best == nil || c.Incl.Get(d.ID) > best.Incl.Get(d.ID) {
				best = c
			}
		}
		if best == nil || best.Incl.Get(d.ID) < core.DefaultHotPathThreshold*n.Incl.Get(d.ID) {
			break
		}
		n = best
	}
	return system, naive, nil
}

// --- compare: hpcdiff -----------------------------------------------------

func sutDiff(tr *tracer, a, b *expdb.Experiment, jobs int) (res *diff.Result, err error) {
	err = tr.do("diff.union", func() error {
		res, err = diff.Diff(diff.Config{Jobs: jobs}, diff.Input{Label: "A", Exp: a}, diff.Input{Label: "B", Exp: b})
		return err
	})
	return res, err
}

func sutRecompute(tr *tracer, res *diff.Result) {
	tr.do("diff.recompute", func() error { res.Recompute(); return nil })
}

func sutReport(tr *tracer, res *diff.Result) (out []byte, err error) {
	var buf bytes.Buffer
	err = tr.do("diff.report", func() error {
		rep, err := res.Report(diff.ReportOptions{Threshold: 0.01, Top: 10})
		if err != nil {
			return err
		}
		return rep.WriteText(&buf)
	})
	return buf.Bytes(), err
}

// deltaSample returns the inclusive delta of the first compared metric at
// the root and at about one scope in 500 of the union, keyed by call path.
// A scope is chosen by a hash of its path, so two unions of the same inputs
// in either order choose the same scopes; scopes whose paths read the same
// (two call sites of one procedure) share a key and add up.
func deltaSample(res *diff.Result) map[string]float64 {
	col := res.Metrics[0].Delta[0]
	out := map[string]float64{}
	var walk func(n *core.Node, path []string, h uint64)
	walk = func(n *core.Node, path []string, h uint64) {
		label := n.Label()
		path = append(path, label)
		for i := 0; i < len(label); i++ { // FNV-1a
			h = (h ^ uint64(label[i])) * 1099511628211
		}
		if h%500 == 0 || n == res.Tree.Root {
			out[strings.Join(path, "/")] += n.Incl.Get(col)
		}
		for _, c := range n.Children {
			walk(c, path, h)
		}
	}
	walk(res.Tree.Root, nil, 14695981039346656037)
	return out
}

// --- serve: hpcserver -----------------------------------------------------

// served is an hpcserver in this process: a catalog over dir, the server's
// handler, and an HTTP listener on a loopback port.
type served struct {
	cat *catalog.Catalog
	srv *server.Server
	hs  *http.Server
	url string
	err chan error
}

func sutServe(dir string, budget int64, jobs int) (*served, error) {
	cat := catalog.New(catalog.Config{Dir: dir, MemBudget: budget})
	if _, err := cat.LoadDir(); err != nil {
		cat.Close()
		return nil, err
	}
	srv := server.NewWithConfig(nil, server.Config{Catalog: cat, Jobs: jobs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		cat.Close()
		return nil, err
	}
	s := &served{cat: cat, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), err: make(chan error, 1)}
	go func() { s.err <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down and waits for the serving goroutine.
func (s *served) close() error {
	err := s.hs.Shutdown(context.Background())
	<-s.err
	s.srv.Close()
	s.cat.Close()
	return err
}

func (s *served) stats() catalog.Stats { return s.cat.Stats() }

// acquire is a direct catalog probe: resolve a name, retain, release.
func (s *served) acquire(tr *tracer, spanName, name string) error {
	return tr.do(spanName, func() error {
		snap, _, err := s.cat.Acquire(name)
		if err != nil {
			return err
		}
		return snap.Release()
	})
}

func (s *served) evictAll() { s.cat.EvictAll() }

func (s *served) ingest(tr *tracer, service string, ts int64, r io.Reader) error {
	return tr.do("catalog.ingest", func() error {
		return s.cat.Ingest(catalog.Key{Service: service, Run: "r", Ts: ts}, r)
	})
}

// scriptInProcess runs a session script against a catalog entry without
// HTTP: the base of server.http_tax_ratio.
func (s *served) scriptInProcess(tr *tracer, name string, lines []string, jobs int) error {
	return tr.do("probe.script_inprocess", func() error {
		snap, _, err := s.cat.Acquire(name)
		if err != nil {
			return err
		}
		defer snap.Release()
		sess := engine.NewSession(snap)
		defer sess.Close()
		sess.SetJobs(jobs)
		for _, line := range lines {
			if _, err := engine.Exec(sess, line, io.Discard); err != nil {
				return err
			}
		}
		return nil
	})
}

// --- probes ---------------------------------------------------------------

// probeCorrelate times correlate.Correlate of one measurement file.
func probeCorrelate(tr *tracer, doc *structfile.Doc, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	p, err := profile.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	return tr.do("correlate.rank", func() error {
		_, err := correlate.Correlate(doc, p)
		return err
	})
}

func probeOpenMapped(tr *tracer, path string) error {
	return tr.do("expdb.open_mapped", func() error {
		db, err := expdb.OpenMapped(path)
		if err != nil {
			return err
		}
		return db.Close()
	})
}

func probeFaultAll(tr *tracer, path string) error {
	snap, err := engine.Open(path)
	if err != nil {
		return err
	}
	defer snap.Release()
	return tr.do("expdb.fault_all", snap.FaultAll)
}
