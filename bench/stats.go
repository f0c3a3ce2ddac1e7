package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; NaN for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tail returns the highest of p99, p90 and p75 that has at least ten
// samples beyond it, and its name; with fewer than forty samples no
// percentile above the median is supported and it returns the median.
func tail(v []float64) (value float64, name string) {
	for _, p := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}} {
		if float64(len(v))*(1-p.q) >= 10 {
			return quantile(v, p.q), p.name
		}
	}
	return median(v), "p50"
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}
