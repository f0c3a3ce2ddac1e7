// Package merge combines per-rank call path profiles into one canonical
// tree with per-scope summary statistics, implementing the paper's
// finalization step (Section IV-A step 3) and the scalability strategy of
// Section VII: instead of keeping one metric column per process in memory,
// each rank's profile is folded into streaming accumulators (mean, min,
// max, standard deviation) and discarded. A rank is never a tree of its
// own: Add streams its correlated samples straight into the accumulated
// tree and keeps one scratch inclusive total per scope until the rank ends.
// The root is one of those scopes: its totals are the rank's program
// totals, so the root's summary cells are the program's statistics.
//
// Merging is parallel (Fold): ranks are split into contiguous shards, one
// per CPU, each streamed into a private Accumulator by one worker, and the
// shards are combined with a pairwise tree reduction (Accumulator.Merge)
// that sums metric columns and summary-statistic moments — see parallel.go.
package merge

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/ingest"
	"repro/internal/metric"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/structfile"
)

// Result is a merged experiment: the summed tree plus per-scope summary
// accumulators over ranks.
type Result struct {
	// Tree holds summed raw metrics over all ranks.
	Tree *core.Tree
	// NRanks is the number of profiles merged.
	NRanks int

	// stats[col][row] accumulates the per-rank inclusive values of raw
	// column col at the scope with dense row id row — column-major like the
	// tree's metric store, so Add indexes a slab instead of hashing a
	// per-node map, and summary sweeps run over contiguous memory. Every
	// row of the tree is a scope some rank entered: the root is entered by
	// all, and the others exist because a sample path led through them.
	stats [][]metric.Stats
	raw   int // number of raw columns covered by stats
}

// grown returns s with at least n elements, the new ones zero; growth is
// amortized by doubling.
func grown[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, max(n, 2*len(s), 64)-len(s))...)
}

// statsAt returns the accumulator cell for (col, row), growing the column
// slab as needed. The pointer is valid until the slab next grows.
func (r *Result) statsAt(col int, row int32) *metric.Stats {
	for col >= len(r.stats) {
		r.stats = append(r.stats, nil)
	}
	r.stats[col] = grown(r.stats[col], int(row)+1)
	return &r.stats[col][row]
}

// Accumulator merges profiles one at a time: feed each rank's profile with
// Add and call Finish once. Only the accumulated tree and O(scopes ×
// metrics) statistics ever stay resident — the streaming shape Section IX
// asks for ("need not have data for all processes resident in memory at
// once"); cmd/hpcprof reads, adds and discards one measurement file at a
// time.
type Accumulator struct {
	doc *structfile.Doc
	res *Result

	// Per-rank scratch, reused from rank to rank.
	walk    correlate.Walk
	cur     *source.Cursor
	rows    []int32     // store rows of the scopes on the current sample path
	incl    [][]float64 // incl[col][row]: the current rank's inclusive total
	touched []int32     // rows some sample path of the current rank entered
}

// NewAccumulator prepares a streaming merge against one structure
// document.
func NewAccumulator(doc *structfile.Doc) *Accumulator {
	tree := core.NewTree("", metric.NewRegistry())
	return &Accumulator{
		doc: doc,
		res: &Result{Tree: tree},
		cur: source.NewCursor(tree.Root),
	}
}

// Add correlates one profile and streams it into the accumulated result;
// the profile can be released afterwards. A profile Add refuses leaves the
// accumulator as it was: everything that can fail runs in the resolve
// pass, before the first sample lands.
func (a *Accumulator) Add(p *profile.Profile) error {
	if a.res == nil {
		return fmt.Errorf("merge: accumulator already finished")
	}
	if err := a.walk.Resolve(a.doc, p); err != nil {
		return err
	}
	r := a.res
	cols, err := source.Columns(r.Tree.Reg, a.walk.Metrics())
	if err != nil {
		return err // Resolve vetted the descriptors: not reachable
	}
	if r.Tree.Program == "" {
		r.Tree.Program = p.Program
	}
	r.raw = max(r.raw, r.Tree.Reg.Len())
	for len(a.incl) < r.raw {
		a.incl = append(a.incl, nil)
	}
	// Every sample path starts at the root, the scope of program totals.
	a.cur.Reset()
	root := r.Tree.Root.Base.Row()
	a.rows = append(a.rows[:0], root)
	a.touched = append(a.touched, root)
	err = a.walk.Samples(func(path []source.Scope, values []float64) error {
		nodes, fresh := a.cur.Descend(path)
		a.rows = a.rows[:fresh]
		for _, n := range nodes[fresh:] {
			a.rows = append(a.rows, n.Base.Row())
		}
		a.touched = append(a.touched, a.rows[fresh:]...)
		leaf := nodes[len(nodes)-1]
		for i, v := range values {
			if v == 0 {
				continue
			}
			leaf.Base.Add(cols[i], v)
			// Every scope on the path contains the sample. Counts are
			// integer-valued float64s whose sums are exact in any order,
			// so adding in stream order gives the bits the postorder sweep
			// of a per-rank tree would.
			in := grown(a.incl[cols[i]], r.Tree.MetricStore().NumRows())
			a.incl[cols[i]] = in
			for _, row := range a.rows {
				in[row] += v
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The rank is complete: each scope it reached observes its non-zero
	// inclusive totals (Finish pads the absent ones with zeros) and gives
	// its scratch back. A scope entered twice finds its totals already
	// taken the second time.
	for _, row := range a.touched {
		for c, in := range a.incl {
			if int(row) < len(in) && in[row] != 0 {
				r.statsAt(c, row).Observe(in[row])
				in[row] = 0
			}
		}
	}
	a.touched = a.touched[:0]
	r.NRanks++
	return nil
}

// ErrNoProfiles is Finish's error when nothing was added.
var ErrNoProfiles = errors.New("merge: no profiles")

// Finish pads statistics for scopes absent from some ranks, computes the
// presented metrics, and returns the result. The accumulator cannot be
// reused.
func (a *Accumulator) Finish() (*Result, error) {
	if a.res == nil {
		return nil, fmt.Errorf("merge: accumulator already finished")
	}
	if a.res.NRanks == 0 {
		return nil, ErrNoProfiles
	}
	res := a.res
	*a = Accumulator{}
	collectIfDue()
	// Scopes missing from some ranks observed zero there: every raw column
	// of every row merges the zeros it lacks (Stats{N: k} holds k zeros),
	// one contiguous column at a time.
	rows := res.Tree.MetricStore().NumRows()
	for c := 0; c < res.raw; c++ {
		for row := range rows {
			st := res.statsAt(c, int32(row))
			st.Merge(metric.Stats{N: int64(res.NRanks) - st.N})
		}
	}
	res.Tree.ComputeMetrics()
	return res, nil
}

// collectIfDue runs the collector now if the pacer was about to anyway:
// when the heap has grown more than half of the way to its goal.
// At the end of a merge the garbage is at its largest (every decoded
// profile, the scratch, the consumed shard trees) and what follows
// allocates whole columns and whole trees; a cycle that falls among those
// instead of before them has them carved from pages the scavenger already
// returned to the system, at a page fault per 4 KB (DESIGN.md §18.6).
func collectIfDue() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	if 2*s[0].Value.Uint64() > s[1].Value.Uint64() {
		runtime.GC()
	}
}

// Profiles correlates each profile against the structure document and
// merges them (the non-streaming convenience over Accumulator) with Fold,
// one worker per CPU. A panic while folding one profile is reported as an
// *ingest.PanicError rather than crashing the process.
func Profiles(doc *structfile.Doc, profs []*profile.Profile) (*Result, error) {
	return Fold(doc, len(profs), func(acc *Accumulator, i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &ingest.PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return acc.Add(profs[i])
	})
}

// Stats returns the per-rank statistics of raw column col at node (the
// zero Stats when the scope never appeared, or is not a scope of this
// result's tree).
func (r *Result) Stats(n *core.Node, col int) metric.Stats {
	if col < 0 || col >= len(r.stats) || n.Base.Store() != r.Tree.MetricStore() {
		return metric.Stats{}
	}
	s := r.stats[col]
	row := int(n.Base.Row())
	if row >= len(s) {
		return metric.Stats{}
	}
	return s[row]
}

// AddSummaries registers summary columns (e.g. mean/min/max/stddev of
// CYCLES across ranks) and writes their values into each scope's inclusive
// vector, where the views and the renderer pick them up like any other
// column.
func (r *Result) AddSummaries(src int, ops ...metric.SummaryOp) error {
	st := r.Tree.MetricStore()
	for _, op := range ops {
		d, err := r.Tree.Reg.AddSummary(src, op)
		if err != nil {
			return err
		}
		if src >= len(r.stats) {
			continue // a column no rank recorded: every summary of it is zero
		}
		// Columnar sweep: the source statistics and the destination
		// inclusive column are both row-indexed slabs. The root's cells
		// are the statistics of the program totals.
		out := st.Col(metric.PlaneIncl, d.ID)
		ss := r.stats[src]
		for row := range min(len(out), len(ss)) {
			if v := ss[row].Value(d.Op); v != 0 {
				out[row] = v
			}
		}
	}
	return nil
}
