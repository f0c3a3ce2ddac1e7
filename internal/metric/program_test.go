package metric

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// evalPalette mixes the values a block kernel could get wrong: signed
// zeros, zero divisors, infinities, NaN, subnormals, and values ≤ 0 for
// log.
var evalPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -3, 0.1, 1e308, -1e308,
	math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 2.2250738585072009e-308,
	7, 1e-7, 4,
}

// evalColumns builds one column per column reference of p, rows long,
// filled from evalPalette in an order set by seed.
func evalColumns(p *Program, rows int, seed uint64) [][]float64 {
	cols := make([][]float64, len(p.ColumnRefs()))
	for i, ref := range p.ColumnRefs() {
		cols[i] = make([]float64, rows)
		for r := range cols[i] {
			h := (uint64(r)*0x9e3779b97f4a7c15 + uint64(ref)*0xbf58476d1ce4e5b9 + seed) * 0x94d049bb133111eb
			cols[i][r] = evalPalette[(h>>33)%uint64(len(evalPalette))]
		}
	}
	return cols
}

// checkEvalCols runs the compiled program over rows rows and checks each
// row against Expr.Eval with the store's -0 normalization: the same bits,
// or NaN on both sides (a NaN's payload depends on operand order, which
// Go does not fix). Every third column is cut short, as a store's slab may
// be: its rows past the end read zero.
func checkEvalCols(t *testing.T, e *Expr, rows int, seed uint64) {
	t.Helper()
	p, err := e.Compile()
	if err != nil {
		t.Fatalf("%q: %v", e, err)
	}
	cols := evalColumns(p, rows, seed)
	for i := range cols {
		if (seed+uint64(i))%3 == 0 {
			cols[i] = cols[i][:(seed*7+uint64(i)*131)%uint64(rows+1)]
		}
	}
	dst := make([]float64, rows)
	for i := range dst {
		dst[i] = 42 // every row must be written
	}
	p.EvalCols(dst, cols)
	for r, got := range dst {
		env := EnvFunc(func(id int) float64 {
			for i, ref := range p.ColumnRefs() {
				if ref == id && r < len(cols[i]) {
					return cols[i][r]
				}
			}
			return 0
		})
		want, err := e.Eval(env)
		if err != nil {
			t.Fatalf("%q: %v", e, err)
		}
		if want == 0 {
			want = 0
		}
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("%q row %d of %d: EvalCols = %v (%#x), Eval = %v (%#x)",
				e, r, rows, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// deepFormula nests n additions to the right, so evaluating it needs a
// stack of n+1 slots.
func deepFormula(n int) string {
	return strings.Repeat("$0 + ($1 * (", n) + "$2" + strings.Repeat("))", n)
}

func TestEvalColsMatchesEval(t *testing.T) {
	formulas := []string{
		"$0",
		"-$0",
		"3",
		"$0 + $1",
		"$0 - $1",
		"$1 - $0",
		"$0 * $1",
		"$0 / $1",
		"$1 / $0",
		"$0 ^ $1",
		"pow($1, 2)",
		"abs($0) + sqrt($1)",
		"log($0)",
		"log($0 - $1)",
		"exp($1)",
		"min($0, $1, $2)",
		"max($0, $1, $2, -1, $0*$1)",
		"min(max($0, 0), $1, 1e-7, $2)",
		"(1 - $0*4/$1) * ($1/$1)",
		"$3 - 0.25*$0",
		"$0*4 - $0/2",
		"-(-$0) + 0*$1",
		deepFormula(evalStackSize + 4),
		"max(" + strings.TrimSuffix(strings.Repeat("$0*$1, ", evalStackSize+2), ", ") + ")",
	}
	for _, src := range formulas {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		for _, rows := range []int{0, 1, evalBlock - 1, evalBlock, evalBlock + 1, 1000} {
			for seed := uint64(0); seed < 3; seed++ {
				checkEvalCols(t, e, rows, seed)
			}
		}
	}
	if p, _ := MustParse(deepFormula(evalStackSize + 4)).Compile(); p.depth <= evalStackSize {
		t.Fatalf("deep formula needs %d slots, want more than %d", p.depth, evalStackSize)
	}
	// Deeper than the fixed buffer has values: one row at a time on a heap
	// stack.
	deepest := MustParse(deepFormula(evalStackSize * evalBlock / 2))
	if p, _ := deepest.Compile(); p.depth <= evalStackSize*evalBlock {
		t.Fatalf("deepest formula needs %d slots, want more than %d", p.depth, evalStackSize*evalBlock)
	}
	for _, rows := range []int{0, 1, 2, 5} {
		checkEvalCols(t, deepest, rows, 1)
	}
}

// TestCompileBytesPerConstant: a compiled constant costs one instruction,
// not a block of values, so formula text from a client cannot make Compile
// allocate much more than the text's own size.
func TestCompileBytesPerConstant(t *testing.T) {
	const n = 1 << 15
	e := MustParse(strings.Repeat("1+", n) + "1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.Compile(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Two 16-byte instructions per constant, and the code slice's growth.
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256 {
		t.Errorf("Compile allocates %d bytes per constant, want at most 256", per)
	}
}

// TestFactorRoundTripsThroughLexer: a factor written into a formula with
// FormatFloat(f, 'g', -1, 64) reads back as exactly f.
func TestFactorRoundTripsThroughLexer(t *testing.T) {
	for _, f := range []float64{1, 4, 0.25, 1.0 / 3, 16.0 / 1024, 1e-7, 1e21} {
		src := strconv.FormatFloat(f, 'g', -1, 64)
		e, err := Parse(src + "*$0")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got, err := e.Eval(EnvFunc(func(int) float64 { return 1 }))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%s reads back as %v, want %v", src, got, f)
		}
	}
}

// TestEvalAllocs: EvalCols allocates nothing for a formula within the
// fixed stack.
func TestEvalAllocs(t *testing.T) {
	p, err := MustParse("(1 - $0*4/$1) * ($1/$1) + max($2, $0, 3)").Compile()
	if err != nil {
		t.Fatal(err)
	}
	cols := evalColumns(p, 1000, 1)
	dst := make([]float64, 1000)
	if n := testing.AllocsPerRun(20, func() { p.EvalCols(dst, cols) }); n != 0 {
		t.Errorf("EvalCols allocates %v/op, want 0", n)
	}
}
