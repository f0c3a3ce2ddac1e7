package imbalance

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lower"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sampler"
	"repro/internal/sim"
	"repro/internal/structfile"
)

func fixture(t *testing.T, ranks int) (*structfile.Doc, []*profile.Profile) {
	t.Helper()
	p := prog.NewBuilder("imb").
		File("a.c").
		Proc("work", 10,
			prog.Lx(11, prog.ScaledInt{X: prog.RankInt{}, Num: 50, Den: 1, Off: 50},
				prog.W(12, 100))).
		Proc("main", 1,
			prog.C(2, "work"),
			prog.Sync(3)).
		Entry("main").MustBuild()
	im, err := lower.Lower(p, lower.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Events: []sampler.EventConfig{
		{Event: sim.EvCycles, Period: 50},
		{Event: sim.EvIdle, Period: 50},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return doc, profs
}

func TestPerRankSeries(t *testing.T) {
	doc, profs := fixture(t, 4)
	vals, err := PerRankSeries(doc, profs, []string{"main", "work"}, "CYCLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 {
		t.Fatalf("len = %d", len(vals))
	}
	// Rank r's work is (50 + 50r)*100 cycles: strictly increasing.
	for r := 1; r < 4; r++ {
		if vals[r] <= vals[r-1] {
			t.Fatalf("series not increasing: %v", vals)
		}
	}
	// Unknown scope yields zeros, not an error.
	zeros, err := PerRankSeries(doc, profs, []string{"main", "ghost"}, "CYCLES")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range zeros {
		if v != 0 {
			t.Fatalf("ghost scope has values: %v", zeros)
		}
	}
	if _, err := PerRankSeries(doc, nil, nil, "CYCLES"); err == nil {
		t.Fatal("empty profiles accepted")
	}
}

func TestAnalyzeAndRender(t *testing.T) {
	doc, profs := fixture(t, 8)
	rep, err := Analyze(doc, profs, []string{"main", "work"}, "CYCLES", 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.N != 8 {
		t.Fatalf("N = %d", rep.Stats.N)
	}
	if rep.ImbalanceFactor() < 0.3 {
		t.Fatalf("imbalance factor = %g, want substantial", rep.ImbalanceFactor())
	}
	total := 0
	for _, b := range rep.Bins {
		total += b.Count
	}
	if total != 8 {
		t.Fatalf("histogram counts = %d, want 8", total)
	}
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"per-rank (scatter):", "rank    0", "sorted:", "histogram:", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	// At 16 384 ranks the sorted section comes out ascending.
	rng := rand.New(rand.NewSource(1))
	wide := &Report{Scope: []string{"main"}, Metric: "CYCLES", Values: make([]float64, 16384)}
	for i := range wide.Values {
		wide.Values[i] = float64(rng.Intn(1e9))
		wide.Stats.Observe(wide.Values[i])
	}
	b.Reset()
	if err := wide.Render(&b); err != nil {
		t.Fatal(err)
	}
	section := strings.SplitN(strings.SplitN(b.String(), "\nsorted:\n", 2)[1], "\n\n", 2)[0]
	lines := strings.Split(section, "\n")
	if len(lines) != 64 {
		t.Fatalf("sorted section has %d lines, want 64", len(lines))
	}
	prev := math.Inf(-1)
	for _, line := range lines {
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil || v < prev {
			t.Fatalf("sorted section not ascending at %q:\n%s", line, section)
		}
		prev = v
	}

	// The ranks 0…16 383 costing their own number: both sections show the
	// last rank, which is the maximum.
	for i := range wide.Values {
		wide.Values[i] = float64(i)
	}
	wide.Stats = metric.Stats{}
	for _, v := range wide.Values {
		wide.Stats.Observe(v)
	}
	b.Reset()
	if err := wide.Render(&b); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	if !strings.Contains(out, "  rank 16383 | ") {
		t.Fatalf("scatter misses rank 16383:\n%s", out)
	}
	section = strings.SplitN(strings.SplitN(out, "\nsorted:\n", 2)[1], "\n\n", 2)[0]
	if !strings.HasSuffix(section, "16383/16384    | "+strings.Repeat("#", barWidth)+" 1.64e+04") {
		t.Fatalf("sorted section does not end at the maximum:\n%s", section)
	}

	// Up to 64 ranks every rank shows, in order.
	rep.Values = wide.Values[:64]
	b.Reset()
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	for i := range 64 {
		if !strings.Contains(b.String(), fmt.Sprintf("  rank %4d | ", i)) || !strings.Contains(b.String(), fmt.Sprintf("  %4d/64    | ", i)) {
			t.Fatalf("64 ranks: rank %d missing:\n%s", i, b.String())
		}
	}
}

func TestHistogram(t *testing.T) {
	bins := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	if len(bins) != 4 {
		t.Fatalf("bins = %d", len(bins))
	}
	for _, b := range bins {
		if b.Count != 2 {
			t.Fatalf("uneven bins: %+v", bins)
		}
	}
	// Max value lands in the last bin.
	if bins[3].Hi != 7 {
		t.Fatalf("last bin hi = %g", bins[3].Hi)
	}
	// Degenerate: all equal.
	deg := Histogram([]float64{5, 5, 5}, 4)
	if len(deg) != 1 || deg[0].Count != 3 {
		t.Fatalf("degenerate histogram = %+v", deg)
	}
	if Histogram(nil, 4) != nil {
		t.Fatal("empty histogram not nil")
	}
	// nbins <= 0 defaults.
	if got := Histogram([]float64{1, 2}, 0); len(got) != 10 {
		t.Fatalf("default bins = %d", len(got))
	}
}

func TestHistogramCountsPreserved(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	for _, nbins := range []int{1, 2, 3, 7, 20} {
		total := 0
		for _, b := range Histogram(vals, nbins) {
			total += b.Count
		}
		if total != len(vals) {
			t.Fatalf("nbins=%d lost values: %d != %d", nbins, total, len(vals))
		}
	}
}
