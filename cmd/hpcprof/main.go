// Command hpcprof correlates raw call path profiles with a structure file,
// producing the experiment database hpcviewer presents — HPCToolkit's
// hpcprof. Profiles from multiple ranks are merged, one worker per CPU
// (GOMAXPROCS), into a database that is byte-identical at any worker
// count; per-scope summary statistics (mean/min/max/stddev across ranks)
// can be added, implementing the scalable finalization step of the
// paper's Section IV/VII.
//
// At scale some measurement files arrive damaged — truncated by killed
// jobs, corrupted by flaky filesystems, unreadable after lost blocks. With
// -keep-going those ranks are quarantined instead of aborting the merge:
// each is reported on stderr, the database records the outcome as
// provenance ("merged 1021/1024 ranks"), and summary statistics are
// computed over the ranks actually merged. -max-bad-ranks bounds the
// damage tolerated before giving up.
//
// Usage:
//
//	hpcprof -S s3d.hpcstruct [-format v3|binary|xml] [-summaries] \
//	        [-keep-going] [-max-bad-ranks N] \
//	        -o s3d.db measurements/s3d-*.cpprof
//
// hpcprof is also the pprof bridge (DESIGN.md §16). -pprof imports a
// gzipped Go runtime/pprof profile (CPU, heap, mutex, ...) through the
// format-neutral source boundary and writes a normal experiment database,
// so every view, diff, catalog and server path works on real-world
// profiles unchanged; -export-pprof opens an existing
// database of any format and writes it back out as a pprof profile:
//
//	hpcprof -pprof cpu.pb.gz -o cpu.db
//	hpcprof -export-pprof cpu.pb.gz cpu.db
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/ingest"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mmapio"
	"repro/internal/pprofio"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/structfile"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hpcprof:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("hpcprof", flag.ContinueOnError)
	dflags := diag.Register(fs)
	structPath := fs.String("S", "", "structure file from hpcstruct (required)")
	out := fs.String("o", "experiment.db", "output database path")
	format := fs.String("format", "v3", "database format: v3 (mappable zero-copy), binary (v2) or xml")
	summaries := fs.Bool("summaries", false, "add mean/min/max/stddev summary columns across ranks")
	keepGoing := fs.Bool("keep-going", false, "quarantine corrupt/truncated/unreadable measurement files instead of aborting")
	maxBad := fs.Int("max-bad-ranks", -1, "abort once more than this many files are quarantined (-1 = unlimited; setting it implies -keep-going)")
	pprofIn := fs.String("pprof", "", "import this gzipped pprof profile instead of hpcrun measurements (no -S)")
	pprofOut := fs.String("export-pprof", "", "export an existing experiment database (the positional argument) to a gzipped pprof profile at this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	write, err := expdb.WriterFor(*format)
	if err != nil {
		return err
	}
	if *pprofOut != "" {
		if *pprofIn != "" {
			return fmt.Errorf("-pprof and -export-pprof are mutually exclusive")
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("-export-pprof needs exactly one database argument, got %d", fs.NArg())
		}
		return exportPprof(fs.Arg(0), *pprofOut)
	}
	if *pprofIn != "" {
		if *structPath != "" {
			return fmt.Errorf("-S is not used with -pprof (pprof profiles are already symbolized)")
		}
		if fs.NArg() != 0 {
			return fmt.Errorf("-pprof takes no positional arguments (one profile per database)")
		}
		return importPprof(*pprofIn, *out, write)
	}
	if *structPath == "" {
		return fmt.Errorf("missing -S structure file")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no profile files given")
	}
	if *maxBad >= 0 {
		*keepGoing = true
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

	sf, err := os.Open(*structPath)
	if err != nil {
		return err
	}
	doc, err := structfile.ReadXML(sf)
	sf.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", *structPath, err)
	}

	res, report, err := mergeFiles(doc, fs.Args(), *keepGoing, *maxBad)
	for _, bad := range report.Bad {
		fmt.Fprintf(os.Stderr, "hpcprof: quarantined %s\n", bad)
	}
	if err != nil {
		return err
	}
	if *summaries && res.NRanks > 1 {
		for _, d := range res.Tree.Reg.Columns() {
			if d.Kind != metric.Raw {
				continue
			}
			if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
				return err
			}
		}
	}
	exp := expdb.FromMerge(res)
	if !report.Clean() {
		exp.Provenance = report
	}

	// Atomic publish: temp file + fsync + rename, so an interrupted merge
	// never leaves a torn database under the output name (a catalog spool
	// would otherwise happily ingest it).
	err = expdb.WriteFileAtomic(*out, func(f *os.File) error { return write(exp, f) })
	if err != nil {
		return err
	}
	if report.Clean() {
		fmt.Printf("wrote %s (%d ranks, %d scopes, %d metric columns)\n",
			*out, res.NRanks, res.Tree.NumNodes(), res.Tree.Reg.Len())
	} else {
		fmt.Printf("wrote %s (%s, %d scopes, %d metric columns)\n",
			*out, report.Summary(), res.Tree.NumNodes(), res.Tree.Reg.Len())
	}
	return nil
}

// importPprof builds an experiment database from one pprof profile via
// the format-neutral source boundary, publishing it through the same
// atomic-write path as a measurement merge.
func importPprof(in, out string, write func(*expdb.Experiment, io.Writer) error) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	im, err := pprofio.Import(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading %s: %w", in, err)
	}
	tree, err := source.BuildTree(im)
	if err != nil {
		return fmt.Errorf("importing %s: %w", in, err)
	}
	exp := &expdb.Experiment{Program: im.Program(), NRanks: im.NRanks(), Tree: tree}
	err = expdb.WriteFileAtomic(out, func(f *os.File) error { return write(exp, f) })
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (pprof import, %d scopes, %d metric columns)\n",
		out, tree.NumNodes(), tree.Reg.Len())
	return nil
}

// exportPprof round-trips an existing database (any format) out to pprof.
// A fault on a page of the mapped database is an error naming the file.
func exportPprof(dbPath, out string) error {
	err := mmapio.Guard(func() error {
		sn, err := engine.Open(dbPath)
		if err != nil {
			return err
		}
		defer sn.Release()
		return expdb.WriteFileAtomic(out, func(f *os.File) error {
			return pprofio.Export(sn.Experiment(), f)
		})
	}, dbPath)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (pprof export of %s)\n", out, dbPath)
	return nil
}

// mergeFiles streams the measurement files through merge.Fold: each
// worker reads, merges and discards one file of its contiguous shard at a
// time, so arbitrarily many ranks fit in memory (the Section IX concern),
// and the result is identical to a sequential merge whatever the worker
// count. A quarantined file is skipped before it touches an accumulator,
// so the result with -keep-going is byte-identical to merging only the
// good files.
//
// The returned Report is always valid, including on error, so callers can
// show what was quarantined before the abort.
func mergeFiles(doc *structfile.Doc, paths []string, keepGoing bool, maxBad int) (*merge.Result, *ingest.Report, error) {
	report := &ingest.Report{Attempted: len(paths)}
	var mu sync.Mutex
	res, err := merge.Fold(doc, len(paths), func(acc *merge.Accumulator, i int) error {
		rank, off, err := processFile(acc, paths[i])
		if err == nil || !keepGoing {
			return err
		}
		bad := ingest.BadRank{
			Path: paths[i], Rank: rank, Offset: off,
			Class: ingest.Classify(err), Message: err.Error(),
		}
		mu.Lock()
		report.Quarantine(bad)
		tooMany := maxBad >= 0 && len(report.Bad) > maxBad
		mu.Unlock()
		if tooMany {
			return fmt.Errorf("more than %d measurement files failed (-max-bad-ranks); last: %w", maxBad, err)
		}
		return nil
	})
	report.Sort()
	// Finish finds no profiles only when every file was quarantined; a
	// failed add never reaches it.
	if errors.Is(err, merge.ErrNoProfiles) {
		return nil, report, fmt.Errorf("all %d measurement files were quarantined", len(paths))
	}
	if err != nil {
		return nil, report, err
	}
	report.Merged = len(paths) - len(report.Bad)
	return res, report, nil
}

// processFile reads and folds one measurement file, containing panics so
// one poisoned file cannot crash the whole merge. rank is -1 until the
// header parsed; off is the approximate byte offset reached (read-buffer
// granularity), -1 if the file never opened.
func processFile(acc *merge.Accumulator, path string) (rank int, off int64, err error) {
	rank, off = -1, -1
	defer func() {
		if r := recover(); r != nil {
			err = &ingest.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return rank, off, err
	}
	defer f.Close()
	cr := &ingest.CountReader{R: f}
	p, err := profile.Read(cr)
	if err != nil {
		return rank, cr.N, fmt.Errorf("reading %s: %w", path, err)
	}
	rank = p.Rank
	if err := acc.Add(p); err != nil {
		return rank, cr.N, fmt.Errorf("merging %s: %w", path, err)
	}
	return rank, cr.N, nil
}
