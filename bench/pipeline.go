package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/gen"
)

// pipeline is the whole paper path on a generated program: measure
// (hpcrun), recover structure (hpcstruct), analyze (hpcprof) and present
// (hpcviewer). It is the only workload where the simulator, the sampler,
// correlation and the merge do the work.
type pipeline struct {
	shape gen.ProgramShape
	ranks int
	iters float64

	spec gen.ProgramSpec
	// What the latest iteration left behind, for verify.
	structPath, dbPath string
	profPaths          []string
}

func newPipeline(short bool) workload {
	if short {
		return &pipeline{shape: gen.ProgramShape{Levels: 3, Width: 4, Fanout: 2}, ranks: 4, iters: 0.3}
	}
	return &pipeline{shape: gen.ProgramShape{Levels: 6, Width: 35, Fanout: 3}, ranks: 64, iters: 2.4}
}

// viewOpens is how many times an iteration opens the published database.
const viewOpens = 5

func (p *pipeline) rate() float64 { return p.iters }

// generate writes nothing: the input is a program description, rebuilt
// from the seed in prepare, and every file of this workload is an output of
// the system.
func (p *pipeline) generate(dir string, seed int64) error { return nil }

func (p *pipeline) prepare(r *run) error {
	p.spec = gen.Program(r.seed, p.shape)
	return nil
}

func (p *pipeline) close() error { return nil }

func (p *pipeline) iterate(r *run) (time.Duration, error) {
	tr := r.tr
	tr.clock = 0
	dir := filepath.Join(r.dir, "meas")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}

	// hpcrun
	program, err := sutProgram(p.spec)
	if err != nil {
		return 0, err
	}
	im, err := sutLower(tr, program)
	if err != nil {
		return 0, err
	}
	lowered := tr.clock
	profs, err := sutRun(tr, "mpi.run", im, p.ranks, r.seed, true)
	if err != nil {
		return 0, err
	}
	r.sample("mpi.run", tr.clock-lowered)
	paths, profBytes, err := sutWriteProfiles(tr, profs, dir)
	if err != nil {
		return 0, err
	}
	measured := tr.clock
	r.sample("stage.measure", measured)

	// hpcstruct lowers the program again, as a separate tool run does.
	im, err = sutLower(tr, program)
	if err != nil {
		return 0, err
	}
	p.structPath = filepath.Join(r.dir, "genprog.hpcstruct")
	structScopes, err := sutWriteStructure(tr, im, p.structPath)
	if err != nil {
		return 0, err
	}
	structured := tr.clock
	r.sample("stage.structure", structured-measured)

	// hpcprof
	p.profPaths, p.dbPath = paths, filepath.Join(r.dir, "genprog.db")
	var m0, m1 runtime.MemStats
	if tr.log != nil {
		runtime.ReadMemStats(&m0)
	}
	doc, err := sutReadStructure(tr, p.structPath)
	if err != nil {
		return 0, err
	}
	read := tr.clock
	res, err := sutMerge(tr, doc, paths, r.jobs)
	if err != nil {
		return 0, err
	}
	r.sample("merge", tr.clock-read)
	if tr.log != nil {
		runtime.ReadMemStats(&m1)
		r.values["merge.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	}
	if err := sutSummaries(tr, res); err != nil {
		return 0, err
	}
	exp, err := sutPublish(tr, res, p.dbPath)
	if err != nil {
		return 0, err
	}
	analyzed := tr.clock
	r.sample("stage.analyze", analyzed-structured)

	// hpcviewer -interactive: five cold opens up to the first view (it
	// takes a millisecond or two, and one sample an iteration would be
	// mostly noise), the last going on to the other two views.
	rendered := 0
	for k := 0; k < viewOpens; k++ {
		start := tr.clock
		snap, err := sutOpen(tr, p.dbPath)
		if err != nil {
			return 0, err
		}
		s := sutSession(tr, snap, r.jobs)
		lines := []string{"hot CYCLES", "ls"}
		if k == viewOpens-1 {
			lines = append(lines, "view callers", "ls", "view flat", "ls")
		}
		for i, line := range lines {
			out, err := sutExec(tr, s, execSpan(line), line)
			if err != nil {
				return 0, err
			}
			rendered += len(out)
			r.ops++
			if i == 1 {
				r.sample("first_view", tr.clock-start)
			}
		}
		s.Close()
		if err := snap.Release(); err != nil {
			return 0, err
		}
	}
	iter := tr.clock

	// Off the clock: merged totals against the raw profiles.
	st, err := os.Stat(p.dbPath)
	if err != nil {
		return 0, err
	}
	totals, samples := profileTotals(profs)
	root, flatExcl := rawTotals(exp)
	r.check(len(root) == len(totals), "database has %d raw columns, profiles have %d", len(root), len(totals))
	for i := range min(len(root), len(totals)) {
		r.check(root[i] == totals[i], "column %d: merged total %v, profiles sum to %v", i, root[i], totals[i])
		r.check(math.Abs(flatExcl[i]-root[i]) <= 1e-9*root[i], "column %d: flat exclusive sums to %v, root inclusive is %v", i, flatExcl[i], root[i])
	}
	scopes := float64(exp.Tree.NumNodes())
	r.values["db_bytes"], r.values["db_scopes"] = float64(st.Size()), scopes
	r.values["expdb.db_bytes"], r.values["merge.scopes"] = float64(st.Size()), scopes
	r.values["sampler.samples"], r.values["profile.bytes"] = samples, float64(profBytes)
	r.values["structfile.scopes"], r.values["render.bytes"] = float64(structScopes), float64(rendered)
	return iter, nil
}

func (p *pipeline) verify(r *run) error {
	for _, name := range []string{"stage.measure", "stage.structure", "stage.analyze"} {
		r.values[name+"_ms"] = median(r.samples[name])
	}
	traced := r.tr.log != nil
	reps := 1
	if traced {
		reps = 3
	}

	// The merge must not depend on the worker count: merge again at one
	// worker, publish, and compare bytes. In a traced run the serial merge
	// is repeated and timed for merge.jobs_speedup.
	off := newTracer(false)
	doc, err := sutReadStructure(off, p.structPath)
	if err != nil {
		return err
	}
	var serial []float64
	serialPath := filepath.Join(r.dir, "genprog.jobs1.db")
	var before []byte
	for i := 0; i < reps; i++ {
		off.clock = 0
		res, err := sutMerge(off, doc, p.profPaths, 1)
		if err != nil {
			return err
		}
		serial = append(serial, float64(off.clock)/1e6)
		if i < reps-1 {
			continue
		}
		if err := sutSummaries(off, res); err != nil {
			return err
		}
		exp, err := sutPublish(off, res, serialPath)
		if err != nil {
			return err
		}
		// Rendered from the merge result that was never re-opened.
		if before, err = renderBatch(exp, r.jobs); err != nil {
			return err
		}
	}
	parallel, err := os.ReadFile(p.dbPath)
	if err != nil {
		return err
	}
	one, err := os.ReadFile(serialPath)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(parallel, one), "database differs between jobs=%d (%d bytes) and jobs=1 (%d bytes)", r.jobs, len(parallel), len(one))

	reopened, err := sutReadDB(off, "check", p.dbPath)
	if err != nil {
		return err
	}
	after, err := renderBatch(reopened, r.jobs)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(before, after), "views of the re-opened database (%d bytes) differ from the pre-write render (%d bytes)", len(after), len(before))
	if !traced {
		return nil
	}

	// Probes: what no iteration isolates.
	r.values["merge.jobs_speedup"] = median(serial) / median(r.samples["merge"])
	for i := 0; i < 5; i++ {
		if err := probeCorrelate(r.tr, doc, p.profPaths[0]); err != nil {
			return err
		}
	}
	program, err := sutProgram(p.spec)
	if err != nil {
		return err
	}
	im, err := sutLower(off, program)
	if err != nil {
		return err
	}
	var unsampled []float64
	for i := 0; i < reps; i++ {
		off.clock = 0
		if _, err := sutRun(off, "mpi.run", im, p.ranks, r.seed, false); err != nil {
			return err
		}
		unsampled = append(unsampled, float64(off.clock)/1e6)
	}
	r.values["sampler.overhead_ratio"] = median(r.samples["mpi.run"]) / median(unsampled)
	return nil
}
