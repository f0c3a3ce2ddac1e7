// Command bench is the repository's end-to-end benchmark: four closed-loop
// workloads that drive the system from outside, through the functions the
// cmd/* mains call, and report end-to-end metrics (an untraced run) or
// per-layer metrics (a traced run). BENCHMARK.json at the repository root
// names every metric with its unit, direction and regression bound;
// bench/README.md is the catalogue.
//
//	go run ./bench                          every workload, untraced
//	go run ./bench -trace                   ... and a traced run of each
//	go run ./bench -repeat 3                three run sets and whether they agree
//	go run ./bench -save a.json             keep the run sets
//	go run ./bench -against a.json          compare with kept run sets
//	go run ./bench --workload explore --seed 7 --seconds 10 --trace 0
//
// The last form is what the driver runs: one workload, one run, and as the
// last line of standard output one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// normalizeTrace accepts -trace, -trace=1 and, as the driver writes it,
// -trace 0 or -trace 1.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload once and print its result line (default: every workload)")
	seed := fs.Int64("seed", 1, "input seed; the only knob the workloads take")
	seconds := fs.Float64("seconds", 0, "length of the timed part (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file under -out")
	repeat := fs.Int("repeat", 1, "run the full set this many times and report whether the sets agree")
	save := fs.String("save", "", "write the run sets to this file")
	against := fs.String("against", "", "compare with run sets saved earlier on the same machine")
	out := fs.String("out", "bench/out", "directory for scratch files and span files")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark description")
	generate := fs.String("generate", "", "internal: write this workload's inputs under -dir and exit")
	dir := fs.String("dir", "", "internal: with -generate")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return err
	}
	if *generate != "" {
		mk, ok := workloads[*generate]
		if !ok {
			return fmt.Errorf("unknown workload %q", *generate)
		}
		return mk(false).generate(*dir, *seed)
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *name != "" {
		res, err := runWorkload(runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}, spec)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d checks failed", *name, res.Failed, res.Attempted)
		}
		return nil
	}
	return runAll(spec, allOptions{*seed, *seconds, *trace == 1, *repeat, *save, *against, *out, *specPath})
}

// allOptions is what a run over every workload was asked for.
type allOptions struct {
	seed          int64
	seconds       float64
	trace         bool
	repeat        int
	save, against string
	out, specPath string
}

// runSet is one pass over every workload: workload -> metric -> value.
type runSet map[string]map[string]float64

// savedSets is what -save writes and -against reads.
type savedSets struct {
	Env  environment `json:"env"`
	Seed int64       `json:"seed"`
	Sets []runSet    `json:"sets"`
}

// runChild runs one workload in a process of its own, so that peak RSS is
// per workload, and returns its result line.
func runChild(workload string, o allOptions, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", t, "-out", o.out, "-spec", o.specPath)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

func runAll(spec *benchSpec, o allOptions) error {
	seed, against := o.seed, o.against
	env := readEnvironment()
	env.GOMAXPROCS = min(env.NProc, 4) // what every child pins
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d seconds=%g\n",
		env.NProc, env.GOMAXPROCS, env.Go, env.CPU, env.Commit, seed, o.seconds)
	var old *savedSets
	if against != "" {
		data, err := os.ReadFile(against)
		if err != nil {
			return err
		}
		old = &savedSets{}
		if err := json.Unmarshal(data, old); err != nil {
			return fmt.Errorf("%s: %w", against, err)
		}
		if !old.Env.sameMachine(env) || old.Seed != seed {
			return fmt.Errorf("refusing to compare: %s was recorded with %+v seed %d, this is %+v seed %d", against, old.Env, old.Seed, env, seed)
		}
	}

	failed := 0
	var sets []runSet
	for n := 0; n < o.repeat; n++ {
		set := runSet{}
		for _, w := range workloadOrder {
			res, err := runChild(w, o, false)
			if err != nil {
				return err
			}
			failed += res.Failed
			set[w] = map[string]float64{}
			fmt.Printf("\n%s (set %d): %d checks, %d failed\n", w, n+1, res.Attempted, res.Failed)
			for _, m := range spec.EndToEnd {
				set[w][m.Name] = res.Metrics[m.Name].Value
				fmt.Printf("  %-22s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
			}
			if !o.trace {
				continue
			}
			tres, err := runChild(w, o, true)
			if err != nil {
				return err
			}
			failed += tres.Failed
			for _, m := range spec.PerLayer {
				if v := tres.Metrics[m.Name].Value; v != 0 {
					fmt.Printf("  %-32s %14.4f %s\n", m.Name, v, m.Unit)
				}
			}
			untraced, traced := set[w]["iter_ms"], tres.Metrics["trace.iter_ms"].Value
			fmt.Printf("  tracing overhead on iter_ms: %+.2f%% (%.2f ms traced, %.2f ms untraced)\n", 100*(traced/untraced-1), traced, untraced)
		}
		sets = append(sets, set)
	}

	if o.save != "" {
		data, err := json.MarshalIndent(savedSets{env, seed, sets}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.save, data, 0o644); err != nil {
			return err
		}
	}
	if len(sets) > 1 {
		fmt.Printf("\nagreement of %d run sets (spread = (max-min)/median):\n", len(sets))
		for _, w := range workloadOrder {
			for _, m := range spec.EndToEnd {
				v := column(sets, w, m.Name)
				verdict := "agree"
				if (v[len(v)-1]-v[0])/median(v) > m.Bound {
					verdict = "unresolved: spread exceeds the bound"
				}
				fmt.Printf("  %-12s %-20s q1/med/q3 %12.4f %12.4f %12.4f %-6s bound %4.0f%%  %s\n", w, m.Name,
					quantile(v, 0.25), median(v), quantile(v, 0.75), m.Unit, 100*m.Bound, verdict)
			}
		}
	}
	if old != nil {
		fmt.Printf("\nagainst %s (%d sets then, %d now):\n", against, len(old.Sets), len(sets))
		for _, w := range workloadOrder {
			for _, m := range spec.EndToEnd {
				fmt.Printf("  %-12s %-20s %s\n", w, m.Name, verdict(column(old.Sets, w, m.Name), column(sets, w, m.Name), m))
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d correctness checks failed", failed)
	}
	return nil
}

// column returns one metric of one workload over run sets, ascending.
func column(sets []runSet, workload, metric string) []float64 {
	v := make([]float64, len(sets))
	for i, s := range sets {
		v[i] = s[workload][metric]
	}
	return sorted(v)
}

// verdict compares a metric now with the same metric then. A move of the
// median within the bound is unchanged only if the run-to-run spread is
// within the bound too; past the bound it is better or worse only if each
// side has at least three runs and every run of one side beats every run of
// the other. Everything else is unresolved.
func verdict(then, now []float64, m metricSpec) string {
	a, b := median(then), median(now)
	change := (b - a) / a
	if m.Better == "higher" {
		change = -change
	}
	wide := max(spread(then), spread(now)) > m.Bound
	apart := len(then) >= 3 && len(now) >= 3 && (now[0] > then[len(then)-1] || now[len(now)-1] < then[0])
	var word string
	switch {
	case change > m.Bound && apart:
		word = "WORSE"
	case change < -m.Bound && apart:
		word = "better"
	case wide || change > m.Bound || change < -m.Bound:
		word = "unresolved"
	default:
		word = "unchanged"
	}
	return fmt.Sprintf("%12.4f -> %12.4f %-6s %+6.1f%% (bound %.0f%%)  %s", a, b, m.Unit, 100*(b-a)/a, 100*m.Bound, strings.TrimSpace(word))
}
