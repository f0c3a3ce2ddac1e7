package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across the adapter boundary. Times are
// nanoseconds since the run started. Parent indexes the span that was open
// on the calling goroutine when this one began (-1 for none); Iter is the
// timed iteration the call belongs to (-1 during set-up and probes).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Iter   int    `json:"iter"`
}

// spanLog is the in-memory store of a traced run, shared by every tracer
// of the run and written out once at exit.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// tracer times calls into the system. Every call is timed, because the
// iteration clock is the sum of the top-level calls (the benchmark's own
// checks run between them and are not charged); spans are kept only in a
// traced run, so an untraced run pays two clock reads per call and nothing
// else. A tracer belongs to one goroutine; fork hands one to a helper.
type tracer struct {
	log   *spanLog // nil in an untraced run
	t0    time.Time
	iter  int
	open  int // innermost open span, -1 for none
	depth int
	// clock sums the durations of top-level calls since it was last zeroed.
	clock time.Duration
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now(), iter: -1, open: -1}
	if on {
		t.log = &spanLog{}
	}
	return t
}

// fork returns a tracer for another goroutine whose spans become children
// of the span open here. Forked calls never advance an iteration clock.
func (t *tracer) fork() *tracer {
	return &tracer{log: t.log, t0: t.t0, iter: t.iter, open: t.open, depth: 1}
}

// do runs f as a span named name.
func (t *tracer) do(name string, f func() error) error {
	start := time.Now()
	idx, parent := -1, t.open
	if t.log != nil {
		t.log.mu.Lock()
		idx = len(t.log.spans)
		t.log.spans = append(t.log.spans, span{Name: name, Start: int64(start.Sub(t.t0)), Parent: parent, Iter: t.iter})
		t.log.mu.Unlock()
		t.open = idx
	}
	t.depth++
	err := f()
	t.depth--
	d := time.Since(start)
	if t.log != nil {
		t.log.mu.Lock()
		t.log.spans[idx].End = t.log.spans[idx].Start + int64(d)
		t.log.mu.Unlock()
		t.open = parent
	}
	if t.depth == 0 {
		t.clock += d
	}
	return err
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover, twice: summed, the plain self time, and wall, the self
// time scaled down where sibling spans ran side by side. Children of one
// span may overlap (helper goroutines), so the part they cover is the union
// of their intervals; each child's wall time is its share of that union, so
// that wall times add up to elapsed time and summed times to work done.
func selfTimes(spans []span) (summed, wall []float64) {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	summed = make([]float64, len(spans))
	scale := make([]float64, len(spans))
	for i := range scale {
		scale[i] = 1
	}
	// A span is appended before any span it encloses, so parents come first.
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, union, total := s.Start, int64(0), int64(0)
		for _, k := range ks {
			total += spans[k].End - spans[k].Start
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				union += hi - lo
				covered = hi
			}
		}
		summed[i] = float64(s.End - s.Start - union)
		for _, k := range ks {
			scale[k] = scale[i]
			if total > union {
				scale[k] *= float64(union) / float64(total)
			}
		}
	}
	wall = make([]float64, len(spans))
	for i := range spans {
		wall[i] = summed[i] * scale[i]
	}
	return summed, wall
}

// layerTimes folds per-span times (from selfTimes) into one number per span
// name, in milliseconds. timed holds, for names used inside timed
// iterations, the median over iterations of the name's total in one
// iteration; probes holds, for names used outside them (set-up, probes),
// the median over the name's spans.
func layerTimes(spans []span, ns []float64) (timed, probes map[string]float64) {
	perIter := map[string]map[int]float64{}
	outside := map[string][]float64{}
	for i, s := range spans {
		ms := ns[i] / 1e6
		if s.Iter < 0 {
			outside[s.Name] = append(outside[s.Name], ms)
			continue
		}
		if perIter[s.Name] == nil {
			perIter[s.Name] = map[int]float64{}
		}
		perIter[s.Name][s.Iter] += ms
	}
	timed, probes = map[string]float64{}, map[string]float64{}
	for name, v := range outside {
		probes[name] = median(v)
	}
	for name, byIter := range perIter {
		v := make([]float64, 0, len(byIter))
		for _, ms := range byIter {
			v = append(v, ms)
		}
		timed[name] = median(v)
	}
	return timed, probes
}

// write writes a traced run's spans, with the counts taken at the same
// boundaries, as JSON.
func (l *spanLog) write(path string, env environment, counts map[string]float64) error {
	data, err := json.Marshal(struct {
		Env    environment        `json:"env"`
		Counts map[string]float64 `json:"counts"`
		Spans  []span             `json:"spans"`
	}{env, counts, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
