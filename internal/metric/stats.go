package metric

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// Stats accumulates streaming summary statistics for one metric at one
// scope: sum, mean, min, max and standard deviation, so that thousands of
// per-process values never need to be held in memory at once (Section VII
// of the paper: "we summarize metrics of all processors into mean,
// covariance, min and max, instead of displaying thousands of metrics").
//
// Exact path. While every value is integral with |x| < 2^53 (metric
// samples are event counts), Stats keeps Σx as a signed and Σx² as an
// unsigned 128-bit integer, so Observe and Merge reach the same state in
// any order, sharding or merge tree. A read computes from that state and
// rounds once: Sum, Mean and Variance are the exact Σx, Σx/N and
// (N·Σx² − (Σx)²)/N² rounded to the nearest float64, and StdDev is the
// square root of Variance. Σx cannot overflow: |Σx| < N·2^53 < 2^116.
//
// Float path. A value that is not integral or has |x| ≥ 2^53, or a Σx²
// that would reach 2^127, moves the accumulator to float64 moments once
// and for good: the exact sums are rounded once, and later values add in
// float64, as does a Merge with a float accumulator. Folds over derived
// values take it (the engine's stats over a derived column, the report's
// imbalance factors); there the result depends on the order of the
// values, and E[x²] − E[x]² may cancel.
//
// The zero Stats is ready to use, and Stats{N: k} holds k zeros.
type Stats struct {
	N        int64
	Min, Max float64
	// Σx in two's complement and Σx², as high and low words. On the float
	// path sumLo and sqLo hold the float64 bits of Σx and Σx² instead, so
	// that a cell stays one 64-byte cache line.
	sumHi, sumLo, sqHi, sqLo uint64
	inexact                  bool
}

// exactLimit bounds the exact path: a float64 holds every integer below it.
const exactLimit = 1 << 53

// Observe folds one value into the statistics.
func (s *Stats) Observe(x float64) {
	s.widen(1, x, x)
	if !s.inexact && -exactLimit < x && x < exactLimit && x == float64(int64(x)) {
		i := int64(x)
		m := uint64(max(i, -i))
		if hi, lo := bits.Mul64(m, m); s.addExact(uint64(i>>63), uint64(i), hi, lo) {
			return
		}
	}
	s.toFloat()
	s.addFloat(x, x*x)
}

// Merge combines another accumulator into s. Two exact accumulators add
// their integers, so partial summaries reduce to the same state in any
// order; otherwise both sides go to the float path and add there.
func (s *Stats) Merge(o Stats) {
	if o.N == 0 {
		return
	}
	s.widen(o.N, o.Min, o.Max)
	if !s.inexact && !o.inexact && s.addExact(o.sumHi, o.sumLo, o.sqHi, o.sqLo) {
		return
	}
	s.toFloat()
	o.toFloat()
	s.addFloat(math.Float64frombits(o.sumLo), math.Float64frombits(o.sqLo))
}

// widen counts n more values, of which lo is the least and hi the greatest.
func (s *Stats) widen(n int64, lo, hi float64) {
	if s.N == 0 || lo < s.Min {
		s.Min = lo
	}
	if s.N == 0 || hi > s.Max {
		s.Max = hi
	}
	s.N += n
}

// addExact adds to the exact sums, or reports false and changes nothing
// when Σx² would reach 2^127.
func (s *Stats) addExact(sumHi, sumLo, sqHi, sqLo uint64) bool {
	lo, c := bits.Add64(s.sqLo, sqLo, 0)
	if hi, _ := bits.Add64(s.sqHi, sqHi, c); hi < 1<<63 {
		s.sqHi, s.sqLo = hi, lo
		s.sumLo, c = bits.Add64(s.sumLo, sumLo, 0)
		s.sumHi, _ = bits.Add64(s.sumHi, sumHi, c)
		return true
	}
	return false
}

// addFloat adds to the float path's sums.
func (s *Stats) addFloat(sum, sq float64) {
	s.sumLo = math.Float64bits(math.Float64frombits(s.sumLo) + sum)
	s.sqLo = math.Float64bits(math.Float64frombits(s.sqLo) + sq)
}

// toFloat moves s to the float path, rounding its exact sums once (Σx²,
// below 2^127, reads as a positive Σx).
func (s *Stats) toFloat() {
	if !s.inexact {
		sum, sq := s.Sum(), Stats{sumHi: s.sqHi, sumLo: s.sqLo}.Sum()
		*s = Stats{N: s.N, Min: s.Min, Max: s.Max, inexact: true,
			sumLo: math.Float64bits(sum), sqLo: math.Float64bits(sq)}
	}
}

// Sum returns Σx.
func (s Stats) Sum() float64 {
	if s.inexact {
		return math.Float64frombits(s.sumLo)
	}
	return s.exact(false, 1)
}

// Mean returns the arithmetic mean (zero when empty).
func (s Stats) Mean() float64 {
	switch {
	case s.N == 0:
		return 0
	case s.inexact:
		return math.Float64frombits(s.sumLo) / float64(s.N)
	}
	return s.exact(false, s.N)
}

// Variance returns the population variance (zero when N < 2).
func (s Stats) Variance() float64 {
	if s.N < 2 {
		return 0
	}
	if s.inexact {
		m := math.Float64frombits(s.sumLo) / float64(s.N)
		return max(0, math.Float64frombits(s.sqLo)/float64(s.N)-m*m)
	}
	return s.exact(true, s.N)
}

// StdDev returns the population standard deviation.
func (s Stats) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Value reports the statistic selected by op (the zero Stats has Min and
// Max 0).
func (s Stats) Value(op SummaryOp) float64 {
	switch op {
	case OpSum:
		return s.Sum()
	case OpMean:
		return s.Mean()
	case OpMin:
		return s.Min
	case OpMax:
		return s.Max
	case OpStdDev:
		return s.StdDev()
	}
	return 0
}

// ImbalanceFactor returns max/mean - 1, a standard load-imbalance measure:
// 0 means perfectly balanced; 1 means the slowest rank does twice the mean
// work. Returns 0 when empty or the mean is zero.
func (s Stats) ImbalanceFactor() float64 {
	if m := s.Mean(); m != 0 {
		return s.Max/m - 1
	}
	return 0
}

// scratch holds the integers of the reads that word arithmetic cannot
// take. Pooled, and never aliased within an operation, such reads allocate
// nothing once warm.
type scratch struct{ num, den, t, q, r big.Int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// exact returns, rounded once, Σx/d of the exact path or, for the
// variance, (d·Σx² − (Σx)²)/d².
func (s *Stats) exact(variance bool, d int64) float64 {
	sum, fits := int64(s.sumLo), s.sumHi == uint64(int64(s.sumLo)>>63)
	switch {
	case fits && !variance && -exactLimit < sum && sum < exactLimit && d < exactLimit:
		return float64(sum) / float64(d) // exact operands: one rounding
	case fits && variance && s.sqHi == 0 && d < 1<<26 && s.sqLo < exactLimit/uint64(d):
		return float64(int64(s.sqLo)*d-sum*sum) / float64(d*d) // (Σx)² ≤ d·Σx²: likewise
	}
	z := scratchPool.Get().(*scratch)
	defer scratchPool.Put(z)
	num, den := &z.num, z.den.SetInt64(d)
	num.SetInt64(int64(s.sumHi)).Lsh(num, 64).Add(num, z.t.SetUint64(s.sumLo))
	if variance {
		z.q.Mul(num, num)
		num.SetUint64(s.sqHi).Lsh(num, 64).Add(num, z.t.SetUint64(s.sqLo))
		num.Sub(z.t.Mul(num, den), &z.q)
		den.Mul(z.r.Set(den), &z.r)
	}
	if num.Sign() == 0 {
		return 0
	}
	// Scaled so that the quotient has 65 or 66 bits, its top 64 bits, with
	// the rest and the remainder folded in as a sticky bit, convert to
	// float64 with one rounding.
	sc := max(0, 65+den.BitLen()-num.BitLen())
	z.q.QuoRem(z.t.Lsh(z.t.Abs(num), uint(sc)), den, &z.r)
	sh := z.q.BitLen() - 64
	m := z.t.Rsh(&z.q, uint(sh)).Uint64()
	if z.r.Sign() != 0 || z.q.TrailingZeroBits() < uint(sh) {
		m |= 1
	}
	return float64(num.Sign()) * math.Ldexp(float64(m), sh-sc)
}
