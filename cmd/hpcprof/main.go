// Command hpcprof correlates raw call path profiles with a structure file,
// producing the experiment database hpcviewer presents — HPCToolkit's
// hpcprof. Profiles from multiple ranks are merged; per-scope summary
// statistics (mean/min/max/stddev across ranks) can be added, implementing
// the scalable finalization step of the paper's Section IV/VII.
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
//	        [-traces] [-keep-going] [-max-bad-ranks N] \
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
//
// With -traces (v3 output only), the trace sections hpcrun -trace captured
// are correlated and streamed into the database with zoom pyramids baked
// at write time. The trace pass re-reads each measurement file
// sequentially in rank order and streams records straight to the output,
// so peak memory stays O(one chunk) no matter how many events were
// captured, and the bytes are identical for any -jobs value.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/ingest"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/pprofio"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/structfile"
	"repro/internal/trace"
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
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel merge workers (1 = sequential)")
	traceOut := fs.Bool("traces", false, "stream captured trace sections into the database with zoom pyramids (v3 format only)")
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
		if *traceOut {
			return fmt.Errorf("-traces requires hpcrun measurements")
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
	if *traceOut && *format != "v3" {
		return fmt.Errorf("-traces requires -format v3")
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

	res, report, err := mergeFiles(context.Background(), doc, fs.Args(), *jobs, *keepGoing, *maxBad)
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
	if *traceOut {
		if err := attachTraces(doc, exp, fs.Args(), report); err != nil {
			return err
		}
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
func exportPprof(dbPath, out string) error {
	sn, err := engine.Open(dbPath)
	if err != nil {
		return err
	}
	defer sn.Release()
	err = expdb.WriteFileAtomic(out, func(f *os.File) error {
		return pprofio.Export(sn.Experiment(), f)
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (pprof export of %s)\n", out, dbPath)
	return nil
}

// attachTraces is the trace correlation pass: for each good measurement
// file (thread 0 only — trace sections are keyed by rank), it re-reads
// the call path trie, resolves it against the merged tree in lookup-only
// mode, and installs a streaming TraceRank whose Scan re-reads the file's
// trace section with call-path ids rewritten from trie preorder indices
// to structural tree rows. The pass is sequential over ranks in ascending
// order, so trace bytes never depend on -jobs. Peak memory is one remap
// table plus one read chunk — never O(events).
func attachTraces(doc *structfile.Doc, exp *expdb.Experiment, paths []string, report *ingest.Report) error {
	bad := map[string]bool{}
	for _, b := range report.Bad {
		bad[b.Path] = true
	}
	rows := exp.PreorderRows()
	seen := map[int]string{}
	var trs []expdb.TraceRank
	for _, path := range paths {
		if bad[path] {
			continue
		}
		tr, ok, err := traceRankOf(doc, exp, rows, path)
		if err != nil {
			return fmt.Errorf("trace pass: %s: %w", path, err)
		}
		if !ok {
			continue
		}
		if prev, dup := seen[tr.Rank]; dup {
			return fmt.Errorf("trace pass: rank %d traced by both %s and %s", tr.Rank, prev, path)
		}
		seen[tr.Rank] = path
		trs = append(trs, tr)
	}
	sort.Slice(trs, func(i, j int) bool { return trs[i].Rank < trs[j].Rank })
	exp.TraceRanks = trs
	return nil
}

// traceRankOf builds one rank's streaming trace source from its
// measurement file; ok is false when the file carries no trace (v1 file,
// trace capture off, or a non-zero thread).
func traceRankOf(doc *structfile.Doc, exp *expdb.Experiment, rows map[*core.Node]uint32, path string) (expdb.TraceRank, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return expdb.TraceRank{}, false, err
	}
	p, err := profile.Read(f)
	f.Close()
	if err != nil {
		return expdb.TraceRank{}, false, err
	}
	if p.Thread != 0 {
		return expdb.TraceRank{}, false, nil
	}
	f, err = os.Open(path)
	if err != nil {
		return expdb.TraceRank{}, false, err
	}
	count, lastT, err := profile.ScanTrace(f, nil)
	f.Close()
	if err != nil {
		return expdb.TraceRank{}, false, err
	}
	if count == 0 {
		return expdb.TraceRank{}, false, nil
	}
	frames, err := correlate.ResolveFrames(doc, p, exp.Tree)
	if err != nil {
		return expdb.TraceRank{}, false, err
	}
	// Trace CPIDs in the file are trie preorder indices; remap each to
	// its structural tree row. Untraceable frames (empty, never sampled)
	// get a sentinel that errors if a record actually references one.
	nodes := p.PreorderNodes()
	const noRow = ^uint32(0)
	remap := make([]uint32, len(nodes))
	for i, n := range nodes {
		remap[i] = noRow
		if fr := frames[n]; fr != nil {
			if row, ok := rows[fr]; ok {
				remap[i] = row
			}
		}
	}
	return expdb.TraceRank{
		Rank:  p.Rank,
		Count: count,
		LastT: lastT,
		Scan: func(emit func(trace.Rec) error) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			_, _, err = profile.ScanTrace(f, func(r trace.Rec) error {
				if int(r.CPID) >= len(remap) || remap[r.CPID] == noRow {
					return fmt.Errorf("trace record references untraceable frame %d in %s", r.CPID, path)
				}
				r.CPID = remap[r.CPID]
				return emit(r)
			})
			return err
		},
	}, true, nil
}

// mergeFiles streams the measurement files into jobs parallel shard
// accumulators — each worker reads, merges and discards one file of its
// contiguous shard at a time, so arbitrarily many ranks fit in memory (the
// Section IX concern) — then combines the shards with a pairwise tree
// reduction. Contiguous shards keep the result identical to a sequential
// merge regardless of the worker count, and a quarantined file is skipped
// before it touches an accumulator, so the result with -keep-going is
// byte-identical to merging only the good files.
//
// The returned Report is always valid, including on error, so callers can
// show what was quarantined before the abort.
func mergeFiles(ctx context.Context, doc *structfile.Doc, paths []string, jobs int, keepGoing bool, maxBad int) (*merge.Result, *ingest.Report, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(paths) {
		jobs = len(paths)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	report := &ingest.Report{Attempted: len(paths)}
	var mu sync.Mutex
	quarantine := func(path string, rank int, off int64, err error) bool {
		bad := ingest.BadRank{
			Path: path, Rank: rank, Offset: off,
			Class: ingest.Classify(err), Message: err.Error(),
		}
		mu.Lock()
		report.Quarantine(bad)
		tooMany := maxBad >= 0 && len(report.Bad) > maxBad
		mu.Unlock()
		return tooMany
	}

	accs := make([]*merge.Accumulator, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		accs[w] = merge.NewAccumulator(doc)
		lo, hi := len(paths)*w/jobs, len(paths)*(w+1)/jobs
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, path := range paths[lo:hi] {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				rank, off, err := processFile(accs[w], path)
				if err == nil {
					continue
				}
				if !keepGoing {
					errs[w] = err
					cancel()
					return
				}
				if quarantine(path, rank, off, err) {
					errs[w] = fmt.Errorf("more than %d measurement files failed (-max-bad-ranks); last: %w", maxBad, err)
					cancel()
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	report.Sort()
	// Prefer a real failure over the cancellation it triggered in the
	// other workers.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err != context.Canceled && err != context.DeadlineExceeded {
			return nil, report, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, report, first
	}
	report.Merged = len(paths) - len(report.Bad)
	if report.Merged == 0 {
		return nil, report, fmt.Errorf("all %d measurement files were quarantined", len(paths))
	}
	acc, err := merge.Combine(accs)
	if err != nil {
		return nil, report, err
	}
	res, err := acc.Finish()
	if err != nil {
		return nil, report, err
	}
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
