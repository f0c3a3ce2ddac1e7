package metric

import "testing"

// FuzzParse guards the formula parser against panics and checks that any
// formula that parses also evaluates without panicking, and that its
// compiled block kernel agrees with the tree evaluator on 300 rows of
// columns derived from the formula's text.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"$0*4 - $1",
		"min($0, $1, 3) / max(1e-9, $2)",
		"((($3)))",
		"-$0^2^3",
		"pow(2, 10) + sqrt(abs(-4))",
		"1.5e-3 * $12",
		"$",
		"min(",
		"1 2 3",
		"exp(log($0))",
		"(1 - $0*4/$1) * ($1/$1)",
		"max($0, $1, $2, $3) - min(1e21, $4, 1e-07)",
	} {
		f.Add(seed)
	}
	env := EnvFunc(func(id int) float64 { return float64(id%7) - 3 })
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		if _, everr := e.Eval(env); everr != nil {
			t.Fatalf("parsed formula failed to evaluate: %v", everr)
		}
		_ = e.ColumnRefs()
		if e.String() != src {
			t.Fatalf("String() = %q, want %q", e.String(), src)
		}
		seed := uint64(14695981039346656037)
		for i := 0; i < len(src); i++ { // FNV-1a
			seed = (seed ^ uint64(src[i])) * 1099511628211
		}
		checkEvalCols(t, e, 300, seed)
	})
}
