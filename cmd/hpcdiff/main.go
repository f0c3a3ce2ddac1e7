// Command hpcdiff compares experiment databases: it unions their calling
// context trees, attaches per-input, delta, ratio and scaling-loss metric
// columns (Section VI-A's scaled differencing, loss = 1 − ideal/actual),
// and reports the scopes that regressed or improved the most.
//
// Usage:
//
//	hpcdiff before.db after.db                     # top regressions, text
//	hpcdiff -json before.db after.db               # same, as JSON
//	hpcdiff -mode weak 64ranks.db 1024ranks.db     # scaling-loss ranking
//	hpcdiff -metric CYCLES -threshold 0.05 a.db b.db
//	hpcdiff -o union.db a.db b.db c.db             # write the union database
//
// The first database is the baseline; every other input is compared
// against it. With -o the union is written as an ordinary database that
// hpcviewer opens like any other — the diff columns are ordinary metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/diff"
	"repro/internal/expdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hpcdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hpcdiff", flag.ContinueOnError)
	metricList := fs.String("metric", "", "comma-separated metrics to compare (default: all raw metrics the inputs share)")
	modeFlag := fs.String("mode", "auto", "scaling expectation: auto, none, weak, strong (auto = weak when rank counts differ)")
	normFlag := fs.String("norm", "auto", "cost normalization: auto, perrank, total (auto = perrank when rank counts differ)")
	labelList := fs.String("labels", "", "comma-separated input labels (default A,B,...)")
	reportMetric := fs.String("report", "", "metric to rank the report by (default: the first compared)")
	threshold := fs.Float64("threshold", 0.01, "report only scopes with |excess| above this fraction of the total (0 = all)")
	top := fs.Int("top", 10, "bound each report list (0 = unlimited)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	outDB := fs.String("o", "", "write the union database to this path")
	outFormat := fs.String("format", "v3", "union database format for -o: v3 (mappable zero-copy) or binary (v2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	write, err := expdb.WriterFor(*outFormat)
	if err != nil || *outFormat == "xml" {
		return fmt.Errorf("unknown -format %q (want v3 or binary)", *outFormat)
	}
	paths := fs.Args()
	if len(paths) < 2 {
		return fmt.Errorf("need at least 2 databases (baseline first), got %d", len(paths))
	}

	var cfg diff.Config
	if *metricList != "" {
		cfg.Metrics = strings.Split(*metricList, ",")
	}
	mode, err := diff.ParseMode(*modeFlag)
	if err != nil {
		return err
	}
	cfg.Mode = mode
	switch *normFlag {
	case "auto":
		cfg.Norm = diff.NormAuto
	case "perrank":
		cfg.Norm = diff.NormPerRank
	case "total":
		cfg.Norm = diff.NormTotal
	default:
		return fmt.Errorf("unknown norm %q (want auto, perrank or total)", *normFlag)
	}

	var labels []string
	if *labelList != "" {
		labels = strings.Split(*labelList, ",")
		if len(labels) != len(paths) {
			return fmt.Errorf("-labels names %d inputs, got %d databases", len(labels), len(paths))
		}
	}

	inputs := make([]diff.Input, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		exp, err := expdb.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		inputs[i].Exp = exp
		if labels != nil {
			inputs[i].Label = labels[i]
		}
	}

	res, err := diff.Diff(cfg, inputs...)
	if err != nil {
		return err
	}

	if *outDB != "" {
		// Atomic publish: never leave a torn union database under -o.
		if err := expdb.WriteFileAtomic(*outDB, func(f *os.File) error { return write(res.Exp, f) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote union database %s (%d scopes, %d columns)\n",
			filepath.Base(*outDB), res.Tree.NumNodes(), res.Tree.Reg.Len())
	}

	th := *threshold
	if th == 0 {
		th = -1 // ReportOptions: negative means no threshold
	}
	rep, err := res.Report(diff.ReportOptions{Metric: *reportMetric, Threshold: th, Top: reportTop(*top)})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return rep.WriteText(stdout)
}

// reportTop maps the CLI convention (0 = unlimited) onto ReportOptions'
// (negative = unlimited, 0 = default).
func reportTop(top int) int {
	if top == 0 {
		return -1
	}
	return top
}
