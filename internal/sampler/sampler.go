// Package sampler implements asynchronous event-based sampling over the
// execution simulator, the hpcrun substitute. Each configured event has an
// overflow period; whenever an event counter crosses its next threshold the
// sampler unwinds the simulated call stack and attributes one period's
// worth of events to the sampled (call path, instruction) context — the
// same attribution PAPI-overflow-driven sampling performs, including the
// property that samples land on whatever instruction happened to cross the
// threshold.
package sampler

import (
	"fmt"

	"repro/internal/profile"
	"repro/internal/sim"
)

// EventConfig selects one event and its sampling period.
type EventConfig struct {
	Event  sim.Event
	Period uint64
}

// DefaultEvents returns the standard measurement set used by the examples
// and benchmarks: cycles, FLOPs, L1/L2 misses and idleness. The base period
// applies to cycles; other events use proportionally smaller periods, as a
// tool would configure rarer events.
func DefaultEvents(basePeriod uint64) []EventConfig {
	if basePeriod == 0 {
		basePeriod = 1000
	}
	div := func(d uint64) uint64 {
		p := basePeriod / d
		if p == 0 {
			p = 1
		}
		return p
	}
	return []EventConfig{
		{Event: sim.EvCycles, Period: basePeriod},
		{Event: sim.EvFLOPs, Period: basePeriod},
		{Event: sim.EvL1Miss, Period: div(10)},
		{Event: sim.EvL2Miss, Period: div(100)},
		{Event: sim.EvIdle, Period: basePeriod},
	}
}

// Sampler accumulates a raw call path profile; attach it to a VM via
// sim.Config.Observer.
type Sampler struct {
	prof    *profile.Profile
	events  []EventConfig
	next    []uint64
	pathBuf []uint64
	samples uint64
}

// New creates a sampler for one thread of execution.
func New(program string, rank, thread int, events []EventConfig) (*Sampler, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("sampler: no events configured")
	}
	metrics := make([]profile.MetricInfo, len(events))
	next := make([]uint64, len(events))
	for i, e := range events {
		if e.Period == 0 {
			return nil, fmt.Errorf("sampler: event %v has zero period", e.Event)
		}
		if e.Event < 0 || e.Event >= sim.NumEvents {
			return nil, fmt.Errorf("sampler: unknown event %d", e.Event)
		}
		metrics[i] = profile.MetricInfo{Name: e.Event.String(), Unit: unitOf(e.Event), Period: e.Period}
		next[i] = e.Period
	}
	return &Sampler{
		prof:   profile.NewProfile(program, rank, thread, metrics),
		events: events,
		next:   next,
	}, nil
}

func unitOf(e sim.Event) string {
	switch e {
	case sim.EvCycles, sim.EvIdle:
		return "cycles"
	case sim.EvFLOPs:
		return "ops"
	case sim.EvL1Miss, sim.EvL2Miss:
		return "misses"
	case sim.EvInstr:
		return "instructions"
	}
	return ""
}

// OnCost implements sim.Observer: it checks every configured event for
// threshold crossings and records samples at the current context.
func (s *Sampler) OnCost(vm *sim.VM, idx int32, delta *sim.Counters) {
	// mpi.Run stamps the fingerprint up front; a lone VM's is hashed here.
	if s.prof.Fingerprint == 0 {
		s.prof.Fingerprint = vm.Image().Fingerprint()
	}
	var path []uint64
	for i, e := range s.events {
		if delta[e.Event] == 0 {
			continue
		}
		cur := vm.Counters.Get(e.Event)
		if cur < s.next[i] {
			continue
		}
		// The counter may have crossed several thresholds within one
		// work instruction; attribute them all here (hardware would
		// deliver the overflows at nearby PCs — skid).
		k := (cur-s.next[i])/e.Period + 1
		s.next[i] += k * e.Period
		if path == nil {
			path = vm.CallPath(s.pathBuf[:0])
			s.pathBuf = path
		}
		s.prof.Record(path, vm.Image().Addr(idx), i, k*e.Period)
		s.samples += k
	}
}

// Profile returns the accumulated raw profile.
func (s *Sampler) Profile() *profile.Profile { return s.prof }

// Samples reports how many samples have been taken (across all events).
func (s *Sampler) Samples() uint64 { return s.samples }
