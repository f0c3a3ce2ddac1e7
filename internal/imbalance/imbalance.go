// Package imbalance implements the load-imbalance analysis of Section
// VI-C: given per-rank profiles and a scope of interest (typically found by
// hot-path analysis over total idleness), it produces the per-rank metric
// series, its summary statistics and a histogram — the three graphs of the
// paper's Figure 7 — and renders them as text.
//
// The per-rank series is recovered lazily by re-correlating one rank at a
// time, mirroring hpcviewer's strategy of not keeping per-process data for
// every scope resident in memory (Section IX).
package imbalance

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/correlate"
	"repro/internal/metric"
	"repro/internal/profile"
	"repro/internal/structfile"
)

// Bin is one histogram bucket over per-rank values.
type Bin struct {
	Lo, Hi float64
	Count  int
}

// Report is the analysis of one scope and metric across ranks.
type Report struct {
	// Scope is the analyzed scope's label path within the CCT.
	Scope []string
	// Metric is the analyzed metric's name.
	Metric string
	// Values holds the scope's inclusive metric value per rank.
	Values []float64
	// Stats summarizes Values.
	Stats metric.Stats
	// Bins is the histogram of Values.
	Bins []Bin
}

// PerRankSeries extracts the inclusive value of the named metric at the
// scope identified by the label path, one value per profile (zero when the
// rank never executed the scope).
func PerRankSeries(doc *structfile.Doc, profs []*profile.Profile, path []string, metricName string) ([]float64, error) {
	if len(profs) == 0 {
		return nil, fmt.Errorf("imbalance: no profiles")
	}
	out := make([]float64, len(profs))
	for i, p := range profs {
		tree, err := correlate.Correlate(doc, p)
		if err != nil {
			return nil, err
		}
		d := tree.Reg.ByName(metricName)
		if d == nil {
			continue // this rank never sampled the metric
		}
		if n := tree.FindPath(path...); n != nil {
			out[i] = n.Incl.Get(d.ID)
		}
	}
	return out, nil
}

// MaxBins bounds the histogram bin count that a request from outside the
// program may ask for: Histogram allocates one Bin per bin whatever the
// number of values.
const MaxBins = 1000

// Histogram buckets values into nbins equal-width bins spanning
// [min, max]. Degenerate spreads collapse to a single bin.
func Histogram(values []float64, nbins int) []Bin {
	if len(values) == 0 {
		return nil
	}
	if nbins <= 0 {
		nbins = 10
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo == hi {
		return []Bin{{Lo: lo, Hi: hi, Count: len(values)}}
	}
	bins := make([]Bin, nbins)
	width := (hi - lo) / float64(nbins)
	for i := range bins {
		bins[i].Lo = lo + float64(i)*width
		bins[i].Hi = bins[i].Lo + width
	}
	bins[nbins-1].Hi = hi
	for _, v := range values {
		idx := int((v - lo) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		bins[idx].Count++
	}
	return bins
}

// Analyze produces a full report for one scope and metric.
func Analyze(doc *structfile.Doc, profs []*profile.Profile, path []string, metricName string, nbins int) (*Report, error) {
	values, err := PerRankSeries(doc, profs, path, metricName)
	if err != nil {
		return nil, err
	}
	r := &Report{Scope: path, Metric: metricName, Values: values, Bins: Histogram(values, nbins)}
	for _, v := range values {
		r.Stats.Observe(v)
	}
	return r, nil
}

// ImbalanceFactor is max/mean - 1 over the per-rank values.
func (r *Report) ImbalanceFactor() float64 { return r.Stats.ImbalanceFactor() }

const barWidth = 40

const plotRows = 64 // most rows of the scatter and of the sorted series

// Render writes the three Figure 7 graphs as text: the per-rank scatter,
// the sorted series and the histogram.
func (r *Report) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "load imbalance of %s at %s\n", r.Metric, strings.Join(r.Scope, " > "))
	fmt.Fprintf(&b, "ranks=%d mean=%.3g min=%.3g max=%.3g stddev=%.3g imbalance=%.2f\n\n",
		r.Stats.N, r.Stats.Mean(), r.Stats.Min, r.Stats.Max, r.Stats.StdDev(), r.ImbalanceFactor())

	top := r.Stats.Max
	bar := func(v float64) string {
		if top <= 0 {
			return ""
		}
		n := int(math.Round(v / top * barWidth))
		return strings.Repeat("#", n)
	}

	// At most plotRows evenly spaced ranks, the first and the last always
	// among them: every rank when there are no more.
	n := len(r.Values)
	shown := min(n, plotRows)
	at := func(i int) int { return i * (n - 1) / max(shown-1, 1) }

	b.WriteString("per-rank (scatter):\n")
	for i := range shown {
		k := at(i)
		fmt.Fprintf(&b, "  rank %4d | %-*s %.3g\n", k, barWidth, bar(r.Values[k]), r.Values[k])
	}

	b.WriteString("\nsorted:\n")
	sorted := slices.Sorted(slices.Values(r.Values))
	for i := range shown {
		k := at(i)
		fmt.Fprintf(&b, "  %4d/%d    | %-*s %.3g\n", k, n, barWidth, bar(sorted[k]), sorted[k])
	}

	b.WriteString("\nhistogram:\n")
	maxCount := 0
	for _, bin := range r.Bins {
		if bin.Count > maxCount {
			maxCount = bin.Count
		}
	}
	for _, bin := range r.Bins {
		n := 0
		if maxCount > 0 {
			n = bin.Count * barWidth / maxCount
		}
		fmt.Fprintf(&b, "  [%.3g, %.3g) | %-*s %d\n", bin.Lo, bin.Hi, barWidth, strings.Repeat("#", n), bin.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
