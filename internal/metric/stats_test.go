package metric

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(scale, 1)
}

// reference returns Σx, the mean and the two-pass population variance
// Σ(x − mean)²/N of xs, each computed exactly in big.Rat and rounded once.
func reference(xs []float64) (sum, mean, variance float64) {
	var s, ss big.Rat
	d := new(big.Rat)
	for _, x := range xs {
		s.Add(&s, d.SetFloat64(x))
	}
	n := big.NewRat(int64(len(xs)), 1)
	m := new(big.Rat).Quo(&s, n)
	for _, x := range xs {
		d.SetFloat64(x)
		d.Sub(d, m)
		ss.Add(&ss, d.Mul(d, d))
	}
	sum, _ = s.Float64()
	mean, _ = m.Float64()
	variance, _ = ss.Quo(&ss, n).Float64()
	return sum, mean, variance
}

// observe folds xs into one Stats, in order.
func observe(xs []float64) Stats {
	var s Stats
	for _, x := range xs {
		s.Observe(x)
	}
	return s
}

// sharded folds xs into shards split at random points and merges the
// shards in a random order.
func sharded(xs []float64, shards int, rng *rand.Rand) Stats {
	cuts := []int{0, len(xs)}
	for i := 1; i < shards; i++ {
		cuts = append(cuts, rng.Intn(len(xs)+1))
	}
	slices.Sort(cuts)
	parts := make([]Stats, 0, shards)
	for i := range cuts[:len(cuts)-1] {
		parts = append(parts, observe(xs[cuts[i]:cuts[i+1]]))
	}
	var s Stats
	for _, i := range rng.Perm(len(parts)) {
		s.Merge(parts[i])
	}
	return s
}

// checkExact asserts that s is on the exact path and reads the reference
// of xs bit for bit.
func checkExact(t *testing.T, what string, s Stats, xs []float64) {
	t.Helper()
	sum, mean, variance := reference(xs)
	if s.inexact {
		t.Fatalf("%s: took the float path", what)
	}
	if s.N != int64(len(xs)) || s.Sum() != sum || s.Mean() != mean || s.Variance() != variance {
		t.Fatalf("%s: n=%d sum=%v mean=%v variance=%v, want %d %v %v %v",
			what, s.N, s.Sum(), s.Mean(), s.Variance(), len(xs), sum, mean, variance)
	}
	if s.StdDev() != math.Sqrt(variance) {
		t.Fatalf("%s: stddev %v, want %v", what, s.StdDev(), math.Sqrt(variance))
	}
}

func repeat(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

func TestStatsBasics(t *testing.T) {
	s := observe([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Sum() != 40 {
		t.Fatalf("N=%d Sum=%g", s.N, s.Sum())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g, want 5", s.Mean())
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min=%g Max=%g", s.Min, s.Max)
	}
	if got := s.StdDev(); got != 2 {
		t.Fatalf("StdDev = %g, want 2", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Stats
	if s.Sum() != 0 || s.Mean() != 0 || s.StdDev() != 0 || s.Value(OpMin) != 0 || s.Value(OpMax) != 0 {
		t.Fatal("empty stats should report zeros")
	}
	if s.ImbalanceFactor() != 0 {
		t.Fatal("empty imbalance should be 0")
	}
}

func TestStatsSingle(t *testing.T) {
	var s Stats
	s.Observe(3)
	if s.Mean() != 3 || s.Min != 3 || s.Max != 3 || s.StdDev() != 0 {
		t.Fatalf("single-value stats wrong: %+v", s)
	}
}

func TestStatsValueDispatch(t *testing.T) {
	s := observe([]float64{1, 3})
	cases := []struct {
		op   SummaryOp
		want float64
	}{
		{OpSum, 4}, {OpMean, 2}, {OpMin, 1}, {OpMax, 3}, {OpStdDev, 1}, {OpNone, 0},
	}
	for _, c := range cases {
		if got := s.Value(c.op); got != c.want {
			t.Errorf("Value(%v) = %g, want %g", c.op, got, c.want)
		}
	}
}

func TestStatsImbalanceFactor(t *testing.T) {
	s := observe([]float64{10, 10, 10, 20})
	// mean = 12.5, max = 20 -> 20/12.5 - 1 = 0.6
	if got := s.ImbalanceFactor(); !almostEqual(got, 0.6, 1e-12) {
		t.Fatalf("ImbalanceFactor = %g, want 0.6", got)
	}
	balanced := observe([]float64{7, 7, 7, 7, 7})
	if got := balanced.ImbalanceFactor(); got != 0 {
		t.Fatalf("balanced ImbalanceFactor = %g, want 0", got)
	}
}

func TestStatsMergeIdentity(t *testing.T) {
	var a Stats
	a.Merge(observe([]float64{5, 7}))
	if a.N != 2 || a.Mean() != 6 {
		t.Fatalf("merge into empty: %+v", a)
	}
	saved := a
	a.Merge(Stats{})
	if a != saved {
		t.Fatal("merging empty changed accumulator")
	}
}

// Stats{N: k} is k zeros: the merge's padding of ranks that never reached
// a scope is that one merge.
func TestStatsMergeZeros(t *testing.T) {
	for _, xs := range [][]float64{{5, 7, 9}, {-4, 2}, {0.5, 3}, {}} {
		want, got := observe(xs), observe(xs)
		for range 1000 {
			want.Observe(0)
		}
		got.Merge(Stats{N: 1000})
		if got != want {
			t.Fatalf("%v: Merge(Stats{N: 1000}) = %+v, 1000 zeros give %+v", xs, got, want)
		}
	}
}

// Identical ranks have no spread. Float moments read 313.5, 2 107 and
// 217 358 for these: Σx² and (Σx)²/N round apart before they cancel.
func TestStatsIdenticalRanksExactZero(t *testing.T) {
	for _, c := range []struct {
		n int
		x float64
	}{{1024, 9.57e9}, {16384, 9.57e9}, {4096, 1e12}} {
		s := observe(repeat(c.n, func(int) float64 { return c.x }))
		if v := s.StdDev(); v != 0 {
			t.Errorf("%d ranks of %g: stddev %v, want 0", c.n, c.x, v)
		}
		if s.Mean() != c.x {
			t.Errorf("%d ranks of %g: mean %v", c.n, c.x, s.Mean())
		}
	}
}

// Spreads of a thousand on large bases, where float moments read 240 236.6
// and 384 for a true stddev near 816.5.
func TestStatsLargeBaseSmallSpread(t *testing.T) {
	for _, c := range []struct {
		n    int
		base float64
		want float64 // the reference stddev, to six figures
	}{{4096, 1e12, 816.546}, {16384, 9.57e9, 816.509}} {
		xs := repeat(c.n, func(i int) float64 { return c.base + float64(i%3)*1e3 })
		s := observe(xs)
		checkExact(t, "sequential", s, xs)
		if math.Abs(s.StdDev()-c.want) > 5e-4 {
			t.Errorf("%d ranks at %g: stddev %v, want %v", c.n, c.base, s.StdDev(), c.want)
		}
	}
}

// A sequential fold and a 7-shard merge of the same ranks agree bit for
// bit; with float moments they differed in the 11th significant digit.
func TestStatsShardedEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := repeat(1024, func(int) float64 { return 3e7 + float64(rng.Int63n(1e6)) })
	seq := observe(xs)
	var par Stats
	for k := range 7 {
		par.Merge(observe(xs[k*len(xs)/7 : (k+1)*len(xs)/7]))
	}
	if seq != par {
		t.Fatalf("sequential %+v != 7-shard %+v", seq, par)
	}
	checkExact(t, "sequential", seq, xs)
}

// Property: at the paper's rank counts and magnitudes up to 1e12, every
// statistic is the big.Rat two-pass value rounded once, and permuting or
// re-sharding the ranks changes no bit.
func TestStatsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 1024, 4096, 16384} {
		for _, mag := range []int64{1e3, 1e8, 1e12} {
			base := float64(rng.Int63n(mag))
			xs := repeat(n, func(int) float64 { return base + float64(rng.Int63n(mag)) })
			if n == 64 {
				xs[0] = -xs[0]
			}
			s := observe(xs)
			checkExact(t, "sequential", s, xs)
			rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			for _, shards := range []int{1, 2, 7, 64} {
				if got := sharded(xs, shards, rng); got != s {
					t.Fatalf("n=%d mag=%d: %d shards of a permutation give %+v, want %+v", n, mag, shards, got, s)
				}
			}
		}
	}
}

// The inputs that take the float path: a value that is not integral, one
// of magnitude 2^53 or more (or not finite), a Σx² that would reach 2^127,
// and a merge with a float accumulator.
func TestStatsFloatPath(t *testing.T) {
	huge := observe([]float64{1<<53 - 1})
	for range 21 {
		huge.Merge(huge)
	}
	if huge.inexact {
		t.Fatal("2^21 values of 2^53-1 left the exact path")
	}
	carried := huge
	carried.Merge(huge)
	for _, c := range []struct {
		what string
		s    Stats
	}{
		{"0.5", observe([]float64{1, 0.5, 2})},
		{"2^53", observe([]float64{1, 1 << 53})},
		{"-2^53", observe([]float64{-(1 << 53)})},
		{"+Inf", observe([]float64{math.Inf(1)})},
		{"NaN", observe([]float64{math.NaN()})},
		{"Σx² past 2^127", carried},
		{"merge of a float accumulator", func() Stats {
			s := observe([]float64{1, 2})
			s.Merge(observe([]float64{0.25}))
			return s
		}()},
	} {
		if !c.s.inexact {
			t.Errorf("%s stayed on the exact path", c.what)
		}
	}
	// The exact sums are rounded once on the way: moments of small
	// integers followed by fractions read like plain float64 sums.
	s := observe([]float64{2, 4, 0.5, 1.5})
	if s.Sum() != 8 || s.Mean() != 2 || s.Variance() != (4+16+0.25+2.25)/4.0-4 {
		t.Fatalf("float path: sum=%v mean=%v variance=%v", s.Sum(), s.Mean(), s.Variance())
	}
	if carried.N != 1<<22 || carried.Mean() != 1<<53-1 || carried.Variance() != 0 {
		t.Fatalf("carried: n=%d mean=%v variance=%v", carried.N, carried.Mean(), carried.Variance())
	}
	for _, x := range []float64{-0.0, -7, 1<<53 - 1, -(1<<53 - 1)} {
		if s := observe([]float64{x, x}); s.inexact {
			t.Errorf("%v took the float path", x)
		}
	}
}

// Property: merging partial accumulators gives the same result as observing
// the concatenated stream. The values are not integral, so this is the
// float path, where the two may round apart.
func TestStatsMergeEquivalentToObserve(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 50
		}
		split := int(splitRaw) % n
		var whole, left, right Stats
		for _, x := range xs {
			whole.Observe(x)
		}
		for _, x := range xs[:split] {
			left.Observe(x)
		}
		for _, x := range xs[split:] {
			right.Observe(x)
		}
		left.Merge(right)
		return left.N == whole.N &&
			almostEqual(left.Sum(), whole.Sum(), 1e-9) &&
			almostEqual(left.Mean(), whole.Mean(), 1e-9) &&
			almostEqual(left.Variance(), whole.Variance(), 1e-6) &&
			left.Min == whole.Min && left.Max == whole.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: variance is never negative and stddev is finite for finite
// inputs.
func TestStatsVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		var s Stats
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// clamp magnitude so the quadratic does not overflow
			s.Observe(math.Mod(x, 1e9))
		}
		return s.Variance() >= 0 && !math.IsNaN(s.StdDev())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzStats splits integer sequences with magnitudes up to 1e12 into
// random shards merged in a random order: Observe and Merge must agree bit
// for bit, and both must read the big.Rat two-pass reference rounded once.
func FuzzStats(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint64(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1e12<<1), uint64(2))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x01\xfe\xff\xff\xff\xff\xff"), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		var xs []float64
		for ; len(data) >= 6; data = data[6:] {
			u := uint64(data[0]) | uint64(data[1])<<8 | uint64(data[2])<<16 |
				uint64(data[3])<<24 | uint64(data[4])<<32 | uint64(data[5])<<40
			x := float64((u >> 1) % (1e12 + 1))
			if u&1 != 0 {
				x = -x
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		s := observe(xs)
		if got := sharded(xs, 1+rng.Intn(8), rng); got != s {
			t.Fatalf("sharded %+v != sequential %+v", got, s)
		}
		checkExact(t, "sequential", s, xs)
	})
}
