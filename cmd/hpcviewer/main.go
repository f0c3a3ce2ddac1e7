// Command hpcviewer presents an experiment database as the paper's three
// complementary views — Calling Context (top-down), Callers (bottom-up) and
// Flat (static) — with sorting by any metric column, hot-path expansion
// (Equation 3), user-defined derived metrics ($n formulas, Section V-D) and
// flattening, rendered as a tree-table.
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/render"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hpcviewer:", err)
		os.Exit(1)
	}
}

type derivedFlags []string

func (d *derivedFlags) String() string     { return strings.Join(*d, ";") }
func (d *derivedFlags) Set(s string) error { *d = append(*d, s); return nil }

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcviewer", flag.ContinueOnError)
	dflags := diag.Register(fs)
	db := fs.String("db", "", "experiment database from hpcprof (required)")
	view := fs.String("view", "cc", "view: cc (calling context), callers, flat")
	sortBy := fs.String("sort", "", "metric column to sort by, e.g. CYCLES or CYCLES:excl (default first column inclusive)")
	hotpath := fs.String("hotpath", "", "run hot path analysis on this metric and highlight it")
	threshold := fs.Float64("threshold", core.DefaultHotPathThreshold, "hot path descent threshold")
	depth := fs.Int("depth", 0, "maximum tree depth to show (0 = unlimited)")
	top := fs.Int("top", 0, "show only the top N children per scope (0 = all)")
	flatten := fs.Int("flatten", 0, "flatten the flat view N times")
	var derived derivedFlags
	fs.Var(&derived, "derived", "derived metric name=formula (repeatable), e.g. 'fpwaste=$0*4-$1'")
	metrics := fs.Bool("metrics", false, "list metric columns and exit")
	interactive := fs.Bool("interactive", false, "start an interactive session (expand/collapse/zoom/hot/src; type help)")
	residency := fs.Bool("residency", false, "debug: report mapped-vs-resident bytes of a mapped (v3) database at open and exit")
	workload := fs.String("w", "", "workload name, to attach pseudo-source for the interactive source pane")
	structPath := fs.String("S", "", "structure file, enabling interactive per-rank plots (with -m)")
	measDir := fs.String("m", "", "measurements directory of .cpprof files, enabling interactive per-rank plots (with -S)")
	htmlOut := fs.String("html", "", "write a self-contained HTML report (all three views) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *db == "" {
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

	if *interactive {
		// Interactive sessions go through the engine, which maps a v3
		// database and checks every column's checksum as it opens.
		return runInteractive(*db, derived, *workload, *structPath, *measDir, *residency)
	}

	exp, err := readDB(*db)
	if err != nil {
		return err
	}
	tree := exp.Tree

	for _, d := range derived {
		kv := strings.SplitN(d, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -derived %q (want name=formula)", d)
		}
		if _, err := tree.Reg.AddDerived(kv[0], kv[1]); err != nil {
			return err
		}
	}
	if err := tree.ApplyDerivedTree(); err != nil {
		return err
	}

	if *metrics {
		for _, d := range tree.Reg.Columns() {
			fmt.Printf("%3d  %-24s %-8s %s\n", d.ID, d.Name, d.Kind, d.Formula)
		}
		return nil
	}

	if *htmlOut != "" {
		hot := -1
		if *hotpath != "" {
			d := tree.Reg.ByName(*hotpath)
			if d == nil {
				return fmt.Errorf("unknown hot path metric %q", *hotpath)
			}
			hot = d.ID
		} else if tree.Reg.Len() > 0 {
			hot = 0
		}
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		opt := render.Options{MaxDepth: *depth, TopN: *top}
		if err := render.RenderHTMLReport(f, tree, exp.Program, hot, opt); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *htmlOut)
		return nil
	}

	sortSpec := core.SortSpec{}
	if *sortBy != "" {
		name, excl := strings.CutSuffix(*sortBy, ":excl")
		d := tree.Reg.ByName(name)
		if d == nil {
			return fmt.Errorf("unknown sort metric %q", name)
		}
		sortSpec = core.SortSpec{MetricID: d.ID, Exclusive: excl}
	}

	opt := render.Options{
		Sort:     sortSpec,
		MaxDepth: *depth,
		TopN:     *top,
		Totals:   tree.Total,
	}

	if *hotpath != "" {
		d := tree.Reg.ByName(*hotpath)
		if d == nil {
			return fmt.Errorf("unknown hot path metric %q", *hotpath)
		}
		path := core.HotPath(tree.Root, d.ID, *threshold)
		opt.Highlight = map[*core.Node]bool{}
		for _, n := range path {
			opt.Highlight[n] = true
		}
		if *depth == 0 {
			// Show just enough depth to cover the hot path.
			opt.MaxDepth = len(path) + 1
		}
		fmt.Printf("hot path (metric %s, t=%.0f%%):\n", d.Name, *threshold*100)
		for i, n := range path[1:] {
			fmt.Printf("  %s%s  [%s]\n", strings.Repeat(" ", i), n.Label(), render.FormatValue(n.Incl.Get(d.ID)))
		}
		fmt.Println()
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	switch *view {
	case "cc":
		return render.RenderTree(w, tree, opt)
	case "callers":
		return render.RenderCallers(w, core.BuildCallersView(tree), tree, opt)
	case "flat":
		fv := core.BuildFlatView(tree)
		roots := core.FlattenN(fv.Roots, *flatten)
		return render.Render(w, roots, tree.Reg, opt)
	default:
		return fmt.Errorf("unknown view %q (want cc, callers or flat)", *view)
	}
}

// runInteractive opens the database as an engine snapshot and drives the
// REPL over one session of it. A v3 database is mapped and verified as it
// opens, every other format decoded whole; either way the notes for damage
// are printed before the first render. Only the trace view, built when a
// command first asks for it, may add notes later.
// The CLI is a thin frontend: every capability here (and in hpcserver)
// lives in internal/engine.
func runInteractive(dbPath string, derived derivedFlags, workload, structPath, measDir string, residency bool) error {
	snap, err := engine.Open(dbPath)
	if err != nil {
		return err
	}
	reportResidency := func(when string) {
		if !residency {
			return
		}
		data := snap.MappedBytes()
		if data == nil {
			fmt.Fprintf(os.Stderr, "hpcviewer: residency at %s: database is not mapped\n", when)
			return
		}
		fmt.Fprintf(os.Stderr, "hpcviewer: residency at %s: %s\n", when, diag.ResidencyString(data))
		spans := snap.SectionSpans()
		kinds := make([]diag.KindSpan, len(spans))
		for i, sp := range spans {
			kinds[i] = diag.KindSpan{Kind: sp.Kind, Data: sp.Data}
		}
		for _, line := range diag.ResidencyByKind(kinds) {
			fmt.Fprintf(os.Stderr, "hpcviewer: residency at %s:   %s\n", when, line)
		}
	}
	reportResidency("open")
	defer reportResidency("exit")
	printed := 0
	flushNotes := func() {
		notes := snap.Notes()
		for ; printed < len(notes); printed++ {
			fmt.Fprintf(os.Stderr, "hpcviewer: warning: %s\n", notes[printed])
		}
	}
	flushNotes()

	var source *prog.Program
	if workload != "" {
		spec, err := workloads.ByName(workload)
		if err != nil {
			return err
		}
		source = spec.Program
	}
	s := engine.NewSession(snap)
	defer s.Close()
	s.SetSource(source)
	for _, d := range derived {
		kv := strings.SplitN(d, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -derived %q (want name=formula)", d)
		}
		if err := s.AddDerivedMetric(kv[0], kv[1]); err != nil {
			return err
		}
	}
	if structPath != "" && measDir != "" {
		doc, profs, err := loadMeasurements(structPath, measDir)
		if err != nil {
			return err
		}
		s.AttachProfiles(doc, profs)
	}
	return repl(s, flushNotes)
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
// the source pane and per-rank plots). flushNotes runs after every
// command so the notes of a trace view's first build surface at once.
func repl(s *engine.Session, flushNotes func()) error {
	out := bufio.NewWriter(os.Stdout)
	err := s.Render(out, render.Options{})
	out.Flush()
	flushNotes()
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
		flushNotes()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		if quit {
			break
		}
	}
	return in.Err()
}

func readDB(path string) (*expdb.Experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// expdb.Read sniffs the magic, accepting XML and binary v1, v2 and v3.
	// The raw file is passed (not a buffered wrapper) so the reader can
	// bound allocations by the file's actual size.
	exp, err := expdb.Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	// A database can open degraded (a damaged optional section or column
	// was dropped) and can carry merge provenance; tell the user on stderr
	// so the rendered views are never silently incomplete.
	for _, note := range exp.Notes {
		fmt.Fprintf(os.Stderr, "hpcviewer: warning: %s\n", note)
	}
	if exp.Provenance != nil && !exp.Provenance.Clean() {
		fmt.Fprintf(os.Stderr, "hpcviewer: %s\n", exp.Provenance.Summary())
	}
	return exp, nil
}
