// Command hpcreport runs the paper's analyses unattended over an
// experiment database: hot paths per entry frame, the derived
// waste/efficiency metrics, load imbalance, and — against a -baseline
// database — the top regressions. It emits deterministic JSON and/or
// markdown through the same atomic-write path as database publication, so
// a crashed report never leaves a torn file for a CI gate to read.
//
// Usage:
//
//	hpcreport [-baseline old.db] [-metric CYCLES] [-top 10] \
//	          [-threshold 0.5] [-bins 10] [-jobs N] \
//	          [-o report.json] [-md report.md] current.db
//
// -o and -md accept "-" for stdout. Report bytes depend only on the
// database bytes and the flags — not on -jobs or any environment — so
// two runs over the same inputs are byte-identical.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hpcreport:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hpcreport", flag.ContinueOnError)
	baseline := fs.String("baseline", "", "baseline database for regression analysis")
	metricName := fs.String("metric", "", "primary metric (default: first raw column)")
	top := fs.Int("top", 10, "bound each ranked list")
	threshold := fs.Float64("threshold", 0, "hot-path descent threshold (default 0.5)")
	bins := fs.Int("bins", 10, "imbalance histogram bins")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "diff kernel workers (report bytes do not depend on it)")
	outJSON := fs.String("o", "report.json", `JSON output path ("-" = stdout, "" = none)`)
	outMD := fs.String("md", "", `markdown output path ("-" = stdout, "" = none)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one database argument, got %d", fs.NArg())
	}
	if *outJSON == "" && *outMD == "" {
		return fmt.Errorf("nothing to write: both -o and -md are empty")
	}

	exp, release, err := openDB(fs.Arg(0))
	if err != nil {
		return err
	}
	defer release()
	opt := report.Options{
		Metric:    *metricName,
		Threshold: *threshold,
		Top:       *top,
		Bins:      *bins,
		Jobs:      *jobs,
	}
	if *baseline != "" {
		base, brelease, err := openDB(*baseline)
		if err != nil {
			return err
		}
		defer brelease()
		opt.Baseline = base
	}

	r, err := report.Build(exp, opt)
	if err != nil {
		return err
	}
	jsonBytes, err := r.JSON()
	if err != nil {
		return err
	}
	if err := write(*outJSON, jsonBytes); err != nil {
		return err
	}
	if err := write(*outMD, r.Markdown()); err != nil {
		return err
	}
	return nil
}

// openDB opens a database of any format; a mapped v3 database has every
// column faulted in (the analyses read all raw and summary values).
func openDB(path string) (*expdb.Experiment, func(), error) {
	sn, err := engine.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if err := sn.FaultAll(); err != nil {
		sn.Release()
		return nil, nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return sn.Experiment(), func() { sn.Release() }, nil
}

// write publishes one rendering: atomically for real paths, directly for
// stdout, not at all for "".
func write(path string, b []byte) error {
	switch path {
	case "":
		return nil
	case "-":
		_, err := os.Stdout.Write(b)
		return err
	}
	return expdb.WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(b)
		return err
	})
}
