// Command hpcrun is the measurement tool: it executes a built-in synthetic
// workload under the sampling virtual machine (on one or many SPMD ranks)
// and writes one raw call path profile per rank, mirroring HPCToolkit's
// hpcrun producing per-thread measurement files.
//
// Usage:
//
//	hpcrun -w s3d [-ranks 1] [-period 1000] [-seed 0] [-p k=v,...] \
//	       -o outdir
//
// The resulting profiles are consumed by hpcprof together with the
// structure file produced by hpcstruct.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/lower"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hpcrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hpcrun", flag.ContinueOnError)
	workload := fs.String("w", "", "workload to run: "+strings.Join(workloads.Names(), ", "))
	ranks := fs.Int("ranks", 0, "number of SPMD ranks (0 = workload default)")
	threads := fs.Int("threads", 1, "threads per rank (each thread writes its own profile)")
	period := fs.Uint64("period", 0, "base sampling period in cycles (0 = workload default)")
	seed := fs.Int64("seed", 0, "execution seed")
	params := fs.String("p", "", "workload parameters, comma-separated k=v pairs")
	out := fs.String("o", "measurements", "output directory for per-rank profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" {
		return fmt.Errorf("missing -w; available workloads: %s", strings.Join(workloads.Names(), ", "))
	}
	spec, err := workloads.ByName(*workload)
	if err != nil {
		return err
	}
	if *ranks > 0 {
		spec.Ranks = *ranks
	}
	if *period > 0 {
		spec.Period = *period
	}
	p, err := parseParams(*params, spec.Params)
	if err != nil {
		return err
	}

	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		return err
	}
	profs, err := mpi.Run(im, mpi.Config{
		NRanks:         spec.Ranks,
		ThreadsPerRank: *threads,
		Params:         p,
		Seed:           *seed,
		Events:         sampler.DefaultEvents(spec.Period),
	})
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, prof := range profs {
		name := filepath.Join(*out, fmt.Sprintf("%s-%06d-%03d.cpprof", spec.Name, prof.Rank, prof.Thread))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := prof.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st := prof.Stats()
		fmt.Printf("wrote %s (%d frames, %d sample contexts)\n", name, st.Frames, st.Leaves)
	}
	return nil
}

func parseParams(s string, defaults map[string]int64) (map[string]int64, error) {
	out := map[string]int64{}
	for k, v := range defaults {
		out[k] = v
	}
	if s == "" {
		return out, nil
	}
	for _, pair := range strings.Split(s, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad parameter %q (want k=v)", pair)
		}
		n, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad parameter value %q: %v", pair, err)
		}
		out[strings.TrimSpace(kv[0])] = n
	}
	return out, nil
}
