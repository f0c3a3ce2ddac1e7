//go:build !race

package metric

import "testing"

// Reading a statistic allocates nothing, on the word paths or through the
// pooled big integers. (The race detector drops pooled objects at random,
// so this runs without it.)
func TestStatsReadAllocs(t *testing.T) {
	for _, xs := range [][]float64{
		repeat(64, func(i int) float64 { return 3e6 + float64(i) }),
		repeat(1024, func(i int) float64 { return 9.57e9 + float64(i%3)*1e3 }),
		{-(1<<53 - 1), 1<<53 - 1, 1<<53 - 1},
	} {
		s := observe(xs)
		if n := testing.AllocsPerRun(1000, func() { _ = s.Sum() + s.Mean() + s.StdDev() }); n != 0 {
			t.Errorf("%d values from %v: a read allocates %v times", len(xs), xs[0], n)
		}
	}
}
