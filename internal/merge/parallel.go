package merge

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metric"
	"repro/internal/profile"
	"repro/internal/structfile"
)

// This file implements the parallel shard/reduce merge topology (Section
// VII at scale): the rank profiles are split into contiguous shards, one
// worker streams each shard into a private Accumulator, and the shards are
// combined with a pairwise tree reduction of Accumulator.Merge operations.
//
// Determinism: shards are contiguous rank ranges and reductions always
// merge a left block with the block immediately to its right, so the
// first-occurrence order of scopes and metric columns — and therefore
// every child list and column ID — is identical to the sequential fold.
// Metric sums are sums of integer-valued float64 samples, so they are
// exact under any association; the summary statistics keep Σx and Σx² as
// exact integers (metric.Stats), so their combine is integer addition
// and the merged database is byte-identical for any jobs value.

// Merge folds another unfinished accumulator into a, summing metric
// columns (matched by name) and adding the per-scope summary moments,
// so shards can be reduced pairwise in any grouping. The other
// accumulator is consumed: it cannot be used afterwards.
func (a *Accumulator) Merge(other *Accumulator) error {
	if a.res == nil || other == nil || other.res == nil {
		return fmt.Errorf("merge: Merge on a finished accumulator")
	}
	o := other.res
	*other = Accumulator{} // its cursor and scratch would keep the shard tree alive
	if o.NRanks == 0 {
		return nil
	}
	r := a.res
	if r.Tree.Program == "" {
		r.Tree.Program = o.Tree.Program
	}
	// Map the other shard's columns into this registry by name, as Add
	// does for a rank's metrics.
	cols := make([]int, o.Tree.Reg.Len())
	for i, d := range o.Tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		if acc := r.Tree.Reg.ByName(d.Name); acc != nil {
			cols[i] = acc.ID
			continue
		}
		nd, err := r.Tree.Reg.AddRaw(d.Name, d.Unit, d.Period)
		if err != nil {
			return err
		}
		cols[i] = nd.ID
	}
	r.raw = max(r.raw, r.Tree.Reg.Len())

	var walk func(accParent *core.Node, n *core.Node)
	walk = func(accParent *core.Node, n *core.Node) {
		acc := accParent
		if n.Kind != core.KindRoot {
			acc = accParent.Child(n.Key, true)
			acc.NoSource = n.NoSource
			acc.Mod = n.Mod
			if acc.CallLine == 0 {
				acc.CallLine = n.CallLine
				acc.CallFile = n.CallFile
			}
		}
		n.Base.Range(func(id int, v float64) {
			acc.Base.Add(cols[id], v)
		})
		orow := int(n.Base.Row())
		for c, s := range o.stats {
			if orow < len(s) && s[orow].N > 0 {
				r.statsAt(cols[c], acc.Base.Row()).Merge(s[orow])
			}
		}
		for _, c := range n.Children {
			walk(acc, c)
		}
	}
	walk(r.Tree.Root, o.Tree.Root)
	r.NRanks += o.NRanks
	return nil
}

// Combine reduces several shard accumulators into one with a pairwise
// tree reduction: each round merges accumulator 2i+1 into 2i, rounds
// running their merges concurrently. The input accumulators are consumed;
// the returned accumulator is accs[0], still unfinished. Shards must be
// contiguous, in-order blocks for the result to match a sequential fold.
func Combine(accs []*Accumulator) (*Accumulator, error) {
	if len(accs) == 0 {
		return nil, fmt.Errorf("merge: no accumulators to combine")
	}
	for len(accs) > 1 {
		pairs := len(accs) / 2
		errs := make([]error, pairs)
		next := make([]*Accumulator, 0, (len(accs)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(accs); i += 2 {
			next = append(next, accs[i])
			wg.Add(1)
			go func(slot int, dst, src *Accumulator) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						errs[slot] = &ingest.PanicError{Value: r, Stack: debug.Stack()}
					}
				}()
				errs[slot] = dst.Merge(src)
			}(i/2, accs[i], accs[i+1])
		}
		if len(accs)%2 == 1 {
			next = append(next, accs[len(accs)-1])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		accs = next
	}
	return accs[0], nil
}

// ProfilesJobs correlates and merges the profiles using up to jobs
// parallel workers (GOMAXPROCS when jobs <= 0). Each worker folds a
// contiguous shard of ranks into a private accumulator; the shards are
// then combined with a pairwise tree reduction. The result is the
// sequential merge's, bit for bit, whatever jobs is: tree, scope order,
// metric sums and summary statistics (see the note on determinism above).
func ProfilesJobs(doc *structfile.Doc, profs []*profile.Profile, jobs int) (*Result, error) {
	return ProfilesJobsCtx(context.Background(), doc, profs, jobs)
}

// addRecover folds one profile with panic containment: a poisoned profile
// (or a bug tickled by it) surfaces as a typed *ingest.PanicError instead
// of crashing the whole merge.
func addRecover(acc *Accumulator, p *profile.Profile) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &ingest.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return acc.Add(p)
}

// ProfilesJobsCtx is ProfilesJobs with cancellation and panic containment:
// workers stop at the next profile once ctx is done, the first failure
// halts the remaining work, and a panic while folding one profile is
// reported as an *ingest.PanicError rather than crashing the process.
func ProfilesJobsCtx(ctx context.Context, doc *structfile.Doc, profs []*profile.Profile, jobs int) (*Result, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(profs) {
		jobs = len(profs)
	}
	if jobs <= 1 {
		acc := NewAccumulator(doc)
		for _, p := range profs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := addRecover(acc, p); err != nil {
				return nil, err
			}
		}
		return acc.Finish()
	}

	accs := make([]*Accumulator, jobs)
	errs := make([]error, jobs)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		accs[w] = NewAccumulator(doc)
		lo, hi := shard(len(profs), jobs, w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, p := range profs[lo:hi] {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				if err := addRecover(accs[w], p); err != nil {
					errs[w] = err
					stop.Store(true)
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	// Prefer a real failure over a cancellation notice.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	acc, err := Combine(accs)
	if err != nil {
		return nil, err
	}
	return acc.Finish()
}

// shard returns the half-open bounds of contiguous block w of n items
// split into jobs near-equal blocks.
func shard(n, jobs, w int) (lo, hi int) {
	return n * w / jobs, n * (w + 1) / jobs
}
