package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up (generate, prepare, one
// discarded warm-up iteration); setup_s is the median. The first set-up of
// a process is the slowest, so one sample would mostly measure that.
const setupReps = 3

// workload is one closed-loop scenario. generate writes the seed's inputs
// as files under dir and runs in a child process, so the measuring
// process's peak RSS is the system's and not the generator's. iterate does
// one iteration and returns how long the system took for it.
type workload interface {
	// rate is timed iterations per second of -seconds: fixed work, sized so
	// that the timed part takes about -seconds on the reference box. A fixed
	// count keeps every count metric exactly repeatable for a seed.
	rate() float64
	generate(dir string, seed int64) error
	prepare(r *run) error
	iterate(r *run) (time.Duration, error)
	// verify runs after the timed part: the checks that need a second pass
	// over the system and, in a traced run, the probes.
	verify(r *run) error
	close() error
}

var workloads = map[string]func(short bool) workload{
	"pipeline":    newPipeline,
	"explore":     newExplore,
	"compare":     newCompare,
	"serve-mixed": newServe,
}

var workloadOrder = []string{"pipeline", "explore", "compare", "serve-mixed"}

// run is the state of one run of one workload.
type run struct {
	seed int64
	jobs int // GOMAXPROCS, and the only degree of parallelism the benchmark uses
	dir  string
	tr   *tracer

	iterMS  []float64
	samples map[string][]float64 // named latencies in ms
	values  map[string]float64   // counts and sizes, by metric name
	ops     int                  // user-visible operations (commands, requests) in timed iterations

	attempted, failed int
}

// check counts one correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failure of an operation that was already counted as
// attempted; only the first failure of a run is printed.
func (r *run) fail(format string, args ...any) {
	if r.failed == 0 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
	r.failed++
}

func (r *run) sample(name string, d time.Duration) {
	r.samples[name] = append(r.samples[name], float64(d)/1e6)
}

// reset forgets what the warm-up iteration recorded; failed checks stay.
func (r *run) reset() {
	r.iterMS, r.ops = nil, 0
	r.samples, r.values = map[string][]float64{}, map[string]float64{}
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two run sets may be compared: everything but
// the commit must match.
func (e environment) sameMachine(o environment) bool {
	e.Commit, o.Commit = "", ""
	return e == o
}

func readEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // test sizes, generated in this process
	out      string // directory for scratch files and span files
}

// runWorkload measures one workload once and returns its result line.
func runWorkload(cfg runConfig, spec *benchSpec) (*result, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadOrder, ", "))
	}
	jobs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(jobs)
	env := readEnvironment()
	w := mk(cfg.short)
	defer w.close()
	r := &run{seed: cfg.seed, jobs: jobs, tr: newTracer(cfg.trace)}
	r.reset()

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var setups []float64
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		start := time.Now()
		r.dir = filepath.Join(work, fmt.Sprint("setup", k))
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, err
		}
		if cfg.short {
			err = w.generate(r.dir, cfg.seed)
		} else {
			err = generateInChild(cfg.workload, r.dir, cfg.seed)
		}
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		if err := w.prepare(r); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		if _, err := w.iterate(r); err != nil {
			return nil, fmt.Errorf("warm-up iteration: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupReps-1 {
			os.RemoveAll(r.dir)
		}
	}
	r.reset()

	iters := max(3, int(w.rate()*cfg.seconds+0.5))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	timedStart, cpuStart := time.Now(), cpuSeconds()
	total := time.Duration(0)
	for i := 0; i < iters; i++ {
		// Each iteration stands for a fresh process: it starts from a
		// collected heap, so it neither pays for the previous iteration's
		// garbage nor has its peak RSS depend on when that was collected.
		runtime.GC()
		r.tr.iter = i
		d, err := w.iterate(r)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		r.iterMS = append(r.iterMS, float64(d)/1e6)
		total += d
	}
	r.tr.iter = -1
	timedWall, timedCPU := time.Since(timedStart), cpuSeconds()-cpuStart
	runtime.ReadMemStats(&after)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	if err := w.verify(r); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":            median(setups),
			"iter_ms":            median(r.iterMS),
			"first_view_ms":      median(r.samples["first_view"]),
			"ops_per_s":          float64(r.ops) / total.Seconds(),
			"peak_rss_mb":        float64(ru.Maxrss) / 1024, // Linux reports KiB
			"db_bytes_per_scope": r.values["db_bytes"] / r.values["db_scopes"],
		}
		for _, m := range spec.EndToEnd {
			v, ok := vals[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not measure", m.Name)
			}
			res.Metrics[m.Name] = metricValue{v, m.Unit}
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed=%d: %d timed iterations in %.1fs (%.1fs in the system, %.1fs of CPU), iter_ms q1/med/q3 %.1f/%.1f/%.1f, first_view_ms n=%d, %d ops, %d checks; files re-opened every iteration: process-cold, page-cache-warm\n",
			cfg.workload, cfg.seed, iters, timedWall.Seconds(), total.Seconds(), timedCPU,
			quantile(r.iterMS, 0.25), median(r.iterMS), quantile(r.iterMS, 0.75), len(r.samples["first_view"]), r.ops, r.attempted)
		return res, nil
	}

	// Traced run: per-layer metrics. A layer the workload never calls
	// reads 0, which is what "no movement expected there" looks like.
	summed, wall := selfTimes(r.tr.log.spans)
	timed, probes := layerTimes(r.tr.log.spans, summed)
	layer := func(name string) float64 {
		if v, ok := timed[name]; ok {
			return v
		}
		return probes[name]
	}
	vals := r.values
	vals["trace.iter_ms"] = median(r.iterMS)
	vals["gc.cycles"] = float64(after.NumGC - before.NumGC)
	vals["gc.pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	vals["heap.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	for _, m := range spec.PerLayer {
		v, ok := vals[m.Name]
		if !ok {
			if base, isMS := strings.CutSuffix(m.Name, "_ms"); isMS {
				v = layer(base)
			} else if base, isUS := strings.CutSuffix(m.Name, "_us"); isUS {
				v = layer(base) * 1000
			}
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	onWall, _ := layerTimes(r.tr.log.spans, wall)
	printShares(cfg.workload, onWall, vals["trace.iter_ms"])
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := r.tr.log.write(path, env, vals); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(r.tr.log.spans), path)
	return res, nil
}

// printShares prints, for a traced run, each layer's wall self time inside
// timed iterations as a share of the iteration, how much of the iteration
// the spans account for, and the three largest layers.
func printShares(name string, timed map[string]float64, iterMS float64) {
	type share struct {
		name string
		ms   float64
	}
	var shares []share
	sum := 0.0
	for n, ms := range timed {
		shares = append(shares, share{n, ms})
		sum += ms
	}
	sort.Slice(shares, func(a, b int) bool { return shares[a].ms > shares[b].ms })
	fmt.Fprintf(os.Stderr, "bench: %s: per-layer wall self time per iteration (traced iter_ms %.2f):\n", name, iterMS)
	for _, s := range shares {
		fmt.Fprintf(os.Stderr, "bench:   %-28s %10.3f ms  %5.1f%%\n", s.name, s.ms, 100*s.ms/iterMS)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: spans account for %.1f%% of iter_ms\n", name, 100*sum/iterMS)
	top := shares[:min(3, len(shares))]
	names := make([]string, len(top))
	for i, s := range top {
		names[i] = fmt.Sprintf("%s (%.0f%%)", s.name, 100*s.ms/iterMS)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: top 3 layers by share: %s\n", name, strings.Join(names, ", "))
}

// cpuSeconds is the user and system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// generateInChild runs this program again as the generator and waits for it.
func generateInChild(name, dir string, seed int64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-generate", name, "-dir", dir, "-seed", fmt.Sprint(seed))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}
