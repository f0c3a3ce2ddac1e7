package merge

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metric"
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
// and the merged database is byte-identical for any worker count.

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

// Fold merges n inputs with the shard/reduce pipeline: min(GOMAXPROCS, n)
// workers (at least one) each fold a contiguous shard of the inputs into a
// private accumulator, calling add(acc, i) for each index i of the shard in
// order, and the shards are then combined and finished. The result is the
// sequential fold's, bit for bit, whatever the worker count (see the note
// on determinism above); one worker is GOMAXPROCS=1.
//
// Once an add fails, the other workers stop at their next input; Fold
// returns the failure of the lowest-numbered shard that failed and never
// combines.
// A panic in add is not contained: add recovers what it can raise.
func Fold(doc *structfile.Doc, n int, add func(acc *Accumulator, i int) error) (*Result, error) {
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	accs := make([]*Accumulator, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range accs {
		accs[w] = NewAccumulator(doc)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := n * w / workers; i < n*(w+1)/workers && !failed.Load(); i++ {
				if err := add(accs[w], i); err != nil {
					errs[w] = err
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	acc, err := Combine(accs)
	if err != nil {
		return nil, err
	}
	return acc.Finish()
}
