// Package mpi executes an SPMD program: N ranks, each a deterministic
// virtual machine with its own sampler, synchronized at barriers. A rank
// arriving early at a barrier is charged the cycle difference to the
// slowest rank as idleness inside the synthetic mpi_wait procedure — the
// measurement substrate behind the paper's PFLOTRAN load-imbalance study
// (Section VI-C), where "load imbalance ... forces some processes to idle
// between synchronization points".
//
// Ranks run as goroutines; the barrier is a reusable cyclic barrier.
// Because each rank's cycle count is deterministic, the computed idleness
// is independent of goroutine scheduling.
package mpi

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
)

// Config parameterizes an SPMD run.
type Config struct {
	// NRanks is the number of processes (default 1).
	NRanks int
	// ThreadsPerRank runs each rank as that many threads (default 1):
	// every (rank, thread) pair executes its own VM and produces its
	// own profile, like hpcrun's per-thread measurement files. All
	// threads of all ranks join the barriers (a BSP-style hybrid
	// model).
	ThreadsPerRank int
	// Params are shared runtime parameters; each rank additionally
	// receives its Rank/NRanks.
	Params map[string]int64
	// Seed is the base RNG seed; rank r runs with Seed + r.
	Seed int64
	// Events configures sampling; nil uses sampler.DefaultEvents(1000).
	Events []sampler.EventConfig
	// MaxSteps/MaxStack forward to sim.Config.
	MaxSteps int64
	MaxStack int
}

// Run executes the image on all ranks and returns one raw profile per
// rank, ordered by rank.
func Run(im *isa.Image, cfg Config) ([]*profile.Profile, error) {
	if cfg.NRanks <= 0 {
		cfg.NRanks = 1
	}
	if cfg.ThreadsPerRank <= 0 {
		cfg.ThreadsPerRank = 1
	}
	events := cfg.Events
	if events == nil {
		events = sampler.DefaultEvents(1000)
	}
	total := cfg.NRanks * cfg.ThreadsPerRank
	bar := newBarrier(total)
	fp := im.Fingerprint() // every rank runs the same image: hash it once

	profiles := make([]*profile.Profile, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for rank := 0; rank < cfg.NRanks; rank++ {
		for thread := 0; thread < cfg.ThreadsPerRank; thread++ {
			wg.Add(1)
			go func(rank, thread int) {
				defer wg.Done()
				slot := rank*cfg.ThreadsPerRank + thread
				s, err := sampler.New(im.Name, rank, thread, events)
				if err != nil {
					errs[slot] = err
					bar.abort()
					return
				}
				s.Profile().Fingerprint = fp
				params := &prog.Params{
					Rank: rank, NRanks: cfg.NRanks,
					Thread: thread, NThreads: cfg.ThreadsPerRank,
					Values: cfg.Params,
				}
				vm, err := sim.New(im, sim.Config{
					Params:   params,
					Seed:     cfg.Seed + int64(slot),
					MaxSteps: cfg.MaxSteps,
					MaxStack: cfg.MaxStack,
					Observer: s,
					Barrier:  bar.wait,
				})
				if err != nil {
					errs[slot] = err
					bar.abort()
					return
				}
				if err := vm.Run(); err != nil {
					errs[slot] = fmt.Errorf("rank %d thread %d: %w", rank, thread, err)
					bar.abort()
					return
				}
				profiles[slot] = s.Profile()
				// A finished thread no longer participates in barriers.
				bar.leave()
			}(rank, thread)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if bar.broken() {
		return nil, fmt.Errorf("mpi: barrier aborted")
	}
	return profiles, nil
}

// barrier is a reusable cyclic barrier that also computes, per round, the
// idle cycles each rank owes: max(arrived cycle counts) - own count.
//
// Ranks that finish execution call leave(), shrinking the participant set,
// so programs whose ranks execute different numbers of barriers still
// terminate (with idleness attributed only among the ranks still inside
// the synchronization).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
	max     uint64
	relMax  uint64
	dead    bool
}

func newBarrier(n int) *barrier {
	b := &barrier{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every active rank has arrived, then returns the idle
// cycles to charge this rank.
func (b *barrier) wait(cycles uint64) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return 0
	}
	gen := b.gen
	b.arrived++
	if cycles > b.max {
		b.max = cycles
	}
	if b.arrived >= b.parties {
		b.release()
	} else {
		for gen == b.gen && !b.dead {
			b.cond.Wait()
		}
	}
	if b.dead {
		return 0
	}
	return b.relMax - cycles
}

// release opens the current round; callers hold the lock.
func (b *barrier) release() {
	b.relMax = b.max
	b.max = 0
	b.arrived = 0
	b.gen++
	b.cond.Broadcast()
}

// leave removes a finished rank from the participant set, releasing the
// current round if it was the last one outstanding.
func (b *barrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parties--
	if b.parties > 0 && b.arrived >= b.parties {
		b.release()
	}
}

// abort wakes every waiter; subsequent waits return zero idleness.
func (b *barrier) abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dead = true
	b.cond.Broadcast()
}

func (b *barrier) broken() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// SortByRank orders profiles by (rank, thread) (Run already returns them
// ordered; this helps callers that regroup).
func SortByRank(ps []*profile.Profile) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Rank != ps[j].Rank {
			return ps[i].Rank < ps[j].Rank
		}
		return ps[i].Thread < ps[j].Thread
	})
}
