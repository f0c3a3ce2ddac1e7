package catalog

import (
	"errors"
	"fmt"
	"sort"
)

// ErrBadStrategy reports an unrecognized Pick strategy.
var ErrBadStrategy = errors.New("catalog: unknown pick strategy")

// Pick selects one generation of a series by a data-driven strategy —
// the answer to "which of this service's runs should I look at":
//
//   - "latest" (or ""): the newest generation, same as a bare Acquire.
//   - "most-samples": the generation with the largest total cost (column
//     0 inclusive at the root) — the run that actually captured the most
//     work. Ties resolve to the newest generation.
//   - "p50": the generation with the lower-median total cost — a
//     representative run, robust against one outlier capture.
//
// Measures are computed by briefly acquiring each generation and are memoized per generation key, so repeated picks
// over a stable series touch no database. Damaged generations are skipped;
// Pick fails only when no generation could be measured.
func (c *Catalog) Pick(seriesName, strategy string) (Key, error) {
	keys := c.Generations(seriesName)
	if len(keys) == 0 {
		return Key{}, fmt.Errorf("%w: %s", ErrNotFound, seriesName)
	}
	switch strategy {
	case "", "latest":
		return keys[len(keys)-1], nil
	case "most-samples", "p50":
	default:
		return Key{}, fmt.Errorf("%w %q (want latest, most-samples or p50)", ErrBadStrategy, strategy)
	}

	type measured struct {
		key Key
		m   float64
	}
	var ms []measured
	var firstErr error
	for _, k := range keys {
		m, err := c.measure(k)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ms = append(ms, measured{k, m})
	}
	if len(ms) == 0 {
		return Key{}, fmt.Errorf("catalog: no measurable generation of %s: %w", seriesName, firstErr)
	}

	switch strategy {
	case "most-samples":
		best := ms[0]
		for _, e := range ms[1:] {
			if e.m > best.m || (e.m == best.m && e.key.Ts > best.key.Ts) {
				best = e
			}
		}
		return best.key, nil
	default: // p50
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].m != ms[j].m {
				return ms[i].m < ms[j].m
			}
			return ms[i].key.Ts < ms[j].key.Ts
		})
		return ms[(len(ms)-1)/2].key, nil
	}
}

// measure returns a generation's total cost, memoized under measureMu
// (generations are immutable, so an entry never goes stale).
func (c *Catalog) measure(k Key) (float64, error) {
	c.measureMu.Lock()
	if c.measures == nil {
		c.measures = map[Key]float64{}
	}
	if v, ok := c.measures[k]; ok {
		c.measureMu.Unlock()
		return v, nil
	}
	c.measureMu.Unlock()

	snap, _, err := c.Acquire(k.String())
	if err != nil {
		return 0, err
	}
	defer snap.Release()
	v := snap.Tree().Root.Incl.Get(0)

	c.measureMu.Lock()
	if c.measures == nil {
		c.measures = map[Key]float64{}
	}
	c.measures[k] = v
	c.measureMu.Unlock()
	return v, nil
}
