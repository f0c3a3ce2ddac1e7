// Command hpcviewer presents an experiment database as the paper's three
// complementary views — Calling Context (top-down), Callers (bottom-up) and
// Flat (static) — with sorting by any metric column, hot-path expansion
// (Equation 3), user-defined derived metrics ($n formulas, Section V-D) and
// flattening, rendered as a tree-table.
//
// Batch and -interactive are one program: both open the database with
// engine.Open and show it through one engine session. Batch expands the
// view whole and prints every row without the session's row numbers and
// '+' expanders; -top N cuts every sibling list, the top level's too, and
// says "... (N more)"; -depth N shows N levels.
//
// Usage:
//
//	hpcviewer -db s3d.db                                 # Calling Context View
//	hpcviewer -db s3d.db -view callers                   # bottom-up
//	hpcviewer -db s3d.db -view flat -flatten 2           # static, flattened
//	hpcviewer -db s3d.db -hotpath CYCLES -threshold 0.5  # hot path only
//	hpcviewer -db s3d.db -derived 'fpwaste=$0*4-$1' -sort fpwaste
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/mmapio"
	"repro/internal/profile"
	"repro/internal/render"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "hpcviewer:", err)
		}
		os.Exit(1)
	}
}

// errReported fails a run whose error is on stderr already.
var errReported = errors.New("reported")

type derivedFlags []string

func (d *derivedFlags) String() string     { return strings.Join(*d, ";") }
func (d *derivedFlags) Set(s string) error { *d = append(*d, s); return nil }

// options are the command's flags.
type options struct {
	db, view, sort, hotpath, workload, structPath, measDir, html string
	threshold                                                    float64
	depth, top, flatten                                          int
	derived                                                      derivedFlags
	metrics, interactive, residency                              bool
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcviewer", flag.ContinueOnError)
	dflags := diag.Register(fs)
	var o options
	fs.StringVar(&o.db, "db", "", "experiment database from hpcprof (required)")
	fs.StringVar(&o.view, "view", "cc", "view: cc (calling context), callers, flat")
	fs.StringVar(&o.sort, "sort", "", "metric column to sort by, e.g. CYCLES or CYCLES:excl (default first column inclusive)")
	fs.StringVar(&o.hotpath, "hotpath", "", "run hot path analysis on this metric and highlight it")
	fs.Float64Var(&o.threshold, "threshold", core.DefaultHotPathThreshold, "hot path descent threshold in (0,1]")
	fs.IntVar(&o.depth, "depth", 0, "maximum tree depth to show (0 = unlimited)")
	fs.IntVar(&o.top, "top", 0, "show only the top N scopes of every sibling list, the top level's too (0 = all)")
	fs.IntVar(&o.flatten, "flatten", 0, "flatten the flat view N times")
	fs.Var(&o.derived, "derived", "derived metric name=formula (repeatable), e.g. 'fpwaste=$0*4-$1'")
	fs.BoolVar(&o.metrics, "metrics", false, "list metric columns and exit")
	fs.BoolVar(&o.interactive, "interactive", false, "start an interactive session (expand/collapse/zoom/hot/src; type help)")
	fs.BoolVar(&o.residency, "residency", false, "debug: report mapped-vs-resident bytes of a mapped (v3) database at open and exit")
	fs.StringVar(&o.workload, "w", "", "workload name, to attach pseudo-source for the interactive source pane")
	fs.StringVar(&o.structPath, "S", "", "structure file, enabling interactive per-rank plots (with -m)")
	fs.StringVar(&o.measDir, "m", "", "measurements directory of .cpprof files, enabling interactive per-rank plots (with -S)")
	fs.StringVar(&o.html, "html", "", "write a self-contained HTML report (all three views) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.db == "" {
		return fmt.Errorf("missing -db")
	}
	stopDiag, err := dflags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if derr := stopDiag(); derr != nil && err == nil {
			err = derr
		}
	}()
	// A fault on a lost page of the mapped database is one error naming
	// the file; the REPL prints it as its other errors.
	err = mmapio.Guard(func() error { return present(&o) }, o.db)
	var fault interface{ Addr() uintptr }
	if o.interactive && errors.As(err, &fault) {
		fmt.Fprintln(os.Stderr, "error:", err)
		return errReported
	}
	return err
}

// present opens the database and shows it through one session, batch or
// REPL, after printing its damage notes and merge provenance.
func present(o *options) error {
	snap, err := engine.Open(o.db)
	if err != nil {
		return err
	}
	defer snap.Release()
	reportResidency := func(when string) {
		if !o.residency {
			return
		}
		lines := snap.Residency()
		if lines == nil {
			lines = []string{"database is not mapped"}
		}
		for i, line := range lines {
			fmt.Fprintf(os.Stderr, "hpcviewer: residency at %s: %s%s\n", when, strings.Repeat("  ", min(i, 1)), line)
		}
	}
	reportResidency("open")
	defer reportResidency("exit")
	for _, note := range snap.Notes() {
		fmt.Fprintf(os.Stderr, "hpcviewer: warning: %s\n", note)
	}
	if p := snap.Provenance(); p != nil && !p.Clean() {
		fmt.Fprintf(os.Stderr, "hpcviewer: %s\n", p.Summary())
	}

	s := engine.NewSession(snap)
	defer s.Close()
	for _, d := range o.derived {
		kv := strings.SplitN(d, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -derived %q (want name=formula)", d)
		}
		if err := s.AddDerivedMetric(kv[0], kv[1]); err != nil {
			return err
		}
	}
	if !o.interactive {
		return batch(s, o)
	}
	if o.workload != "" {
		spec, err := workloads.ByName(o.workload)
		if err != nil {
			return err
		}
		s.SetSource(spec.Program)
	}
	if o.structPath != "" && o.measDir != "" {
		doc, profs, err := loadMeasurements(o.structPath, o.measDir)
		if err != nil {
			return err
		}
		s.AttachProfiles(doc, profs)
	}
	return repl(s)
}

// batch prints what the flags ask of the session: its metric columns, an
// HTML report of the three views, or one view expanded whole.
func batch(s *engine.Session, o *options) error {
	reg := s.Registry()
	if o.metrics {
		for _, d := range reg.Columns() {
			fmt.Printf("%3d  %-24s %-8s %s\n", d.ID, d.Name, d.Kind, d.Formula)
		}
		return nil
	}
	if o.html != "" {
		return writeHTML(s, o)
	}
	if o.sort != "" {
		name, excl := strings.CutSuffix(o.sort, ":excl")
		d := reg.ByName(name)
		if d == nil {
			return fmt.Errorf("unknown sort metric %q", name)
		}
		s.SetSort(core.SortSpec{MetricID: d.ID, Exclusive: excl})
	}
	depth := o.depth
	if o.hotpath != "" {
		d := reg.ByName(o.hotpath)
		if d == nil {
			return fmt.Errorf("unknown hot path metric %q", o.hotpath)
		}
		// Equation 3 from the CCT's root, whichever view is printed.
		s.SetThreshold(o.threshold)
		path := s.HotPath(d.ID)
		if depth == 0 {
			// Show just enough depth to cover the hot path.
			depth = len(path) + 1
		}
		fmt.Printf("hot path (metric %s, t=%.0f%%):\n", d.Name, s.Threshold()*100)
		for i, n := range path[1:] {
			fmt.Printf("  %s%s  [%s]\n", strings.Repeat(" ", i), n.Label(), render.FormatValue(s.Value(n, d.ID, true)))
		}
		fmt.Println()
	}
	switch o.view {
	case "cc":
	case "callers":
		s.SwitchView(engine.ViewCallers)
	case "flat":
		s.SwitchView(engine.ViewFlat)
		for range o.flatten {
			s.FlattenOnce()
		}
	default:
		return fmt.Errorf("unknown view %q (want cc, callers or flat)", o.view)
	}
	s.SetLimits(o.top, depth)
	if err := s.ExpandAll(nil); err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	if err := s.RenderLines(w); err != nil {
		return err
	}
	return w.Flush()
}

// writeHTML writes the HTML report of the three views to o.html, with the
// hot path of -hotpath (or the first column) highlighted in the Calling
// Context View.
func writeHTML(s *engine.Session, o *options) error {
	hot := -1
	if o.hotpath != "" {
		d := s.Registry().ByName(o.hotpath)
		if d == nil {
			return fmt.Errorf("unknown hot path metric %q", o.hotpath)
		}
		hot = d.ID
	} else if s.Registry().Len() > 0 {
		hot = 0
	}
	f, err := os.Create(o.html)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	s.SetLimits(o.top, o.depth)
	err = s.RenderHTML(w, s.Snapshot().Experiment().Program, hot)
	if err = errors.Join(err, w.Flush(), f.Close()); err == nil {
		fmt.Printf("wrote %s\n", o.html)
	}
	return err
}

// loadMeasurements reads a structure file plus every .cpprof profile in a
// directory, enabling the session's per-rank plot graphs.
func loadMeasurements(structPath, dir string) (*structfile.Doc, []*profile.Profile, error) {
	sf, err := os.Open(structPath)
	if err != nil {
		return nil, nil, err
	}
	doc, err := structfile.ReadXML(sf)
	sf.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", structPath, err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.cpprof"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no .cpprof files in %s", dir)
	}
	var profs []*profile.Profile
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		p, err := profile.Read(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("reading %s: %w", path, err)
		}
		profs = append(profs, p)
	}
	return doc, profs, nil
}

// repl drives an interactive session over stdin, emulating hpcviewer's
// GUI interactions (expand/collapse, hot-path drill-down, zoom, flatten,
// the source pane and per-rank plots).
func repl(s *engine.Session) error {
	out := bufio.NewWriter(os.Stdout)
	err := s.Render(out, render.Options{})
	out.Flush()
	if err != nil {
		return err
	}
	fmt.Println("\ntype 'help' for commands, 'quit' to leave")
	in := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("hpcviewer> ")
		if !in.Scan() {
			break
		}
		quit, err := engine.Exec(s, in.Text(), out)
		out.Flush()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		if quit {
			break
		}
	}
	return in.Err()
}
