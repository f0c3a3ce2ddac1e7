package metric

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

type cols []float64

func (c cols) Column(id int) float64 {
	if id < 0 || id >= len(c) {
		return 0
	}
	return c[id]
}

func evalOK(t *testing.T, src string, env Env) float64 {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := e.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

// mustEval evaluates an expression that is known to be valid.
func mustEval(e *Expr, env Env) float64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}

func TestFormulaArithmetic(t *testing.T) {
	env := cols{10, 3, 2}
	tests := []struct {
		src  string
		want float64
	}{
		{"1+2", 3},
		{"2*3+4", 10},
		{"2+3*4", 14},
		{"(2+3)*4", 20},
		{"10-2-3", 5},   // left associative
		{"100/10/2", 5}, // left associative
		{"2^3^2", 512},  // right associative
		{"-$0", -10},
		{"--4", 4},
		{"$0*$1 - $2", 28},
		{"$0 / $1", 10.0 / 3},
		{"$9", 0}, // absent column is zero
		{"1.5e2", 150},
		{"2.5E-1", 0.25},
		{"min(3, 1, 2)", 1},
		{"max($0, $1, 7)", 10},
		{"abs(-3)", 3},
		{"sqrt(16)", 4},
		{"pow(2, 10)", 1024},
		{"exp(0)", 1},
		{"log(1)", 0},
		{"log(0)", 0},        // clamped
		{"log(-5)", 0},       // clamped
		{"$0 / ($1 - 3)", 0}, // divide by zero -> 0, not Inf
	}
	for _, tc := range tests {
		if got := evalOK(t, tc.src, env); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%q = %g, want %g", tc.src, got, tc.want)
		}
	}
}

func TestFormulaFloatingPointWasteRecipe(t *testing.T) {
	// The paper's Section V-D waste metric:
	// cycles * peak_flops_per_cycle - flops, with $0=cycles, $1=flops.
	env := cols{1000, 1500}
	if got := evalOK(t, "$0*4 - $1", env); got != 2500 {
		t.Fatalf("waste = %g, want 2500", got)
	}
	// relative efficiency = flops / (cycles*peak)
	if got := evalOK(t, "$1 / ($0*4)", env); math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("efficiency = %g, want 0.375", got)
	}
}

func TestFormulaErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"$",
		"$x",
		"(1",
		"1)",
		"foo(1)",
		"min()",
		"pow(1)",
		"pow(1,2,3)",
		"abs(1,2)",
		"1 2",
		"#",
		"$0 $1",
		"min(1,)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestFormulaColumnRefs(t *testing.T) {
	e, err := Parse("$3 + $1*$3 - min($0, $5)")
	if err != nil {
		t.Fatal(err)
	}
	got := e.ColumnRefs()
	want := []int{0, 1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("refs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refs = %v, want %v", got, want)
		}
	}
}

func TestFormulaStringRoundTrip(t *testing.T) {
	src := "$0*4 - $1"
	e := MustParse(src)
	if e.String() != src {
		t.Fatalf("String() = %q, want %q", e.String(), src)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse of invalid formula did not panic")
		}
	}()
	MustParse("((")
}

// Property: parsing never panics and evaluation of a successfully parsed
// formula over finite inputs never yields NaN from division (we clamp /0).
func TestFormulaDivisionNeverNaN(t *testing.T) {
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) ||
			math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsInf(c, 0) {
			return true
		}
		e := MustParse("$0 / $1 + $2 / ($0 - $0)")
		got := mustEval(e, cols{a, b, c})
		return !math.IsNaN(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: formula (a+b)*c == a*c + b*c for integer-valued columns
// (distributivity holds exactly for small integers in float64).
func TestFormulaDistributivity(t *testing.T) {
	left := MustParse("($0 + $1) * $2")
	right := MustParse("$0*$2 + $1*$2")
	f := func(a, b, c int16) bool {
		env := cols{float64(a), float64(b), float64(c)}
		return mustEval(left, env) == mustEval(right, env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Evaluation errors are typed, not panics: a hand-built expression tree
// with an operator or function the evaluator does not implement must
// surface an *EvalError carrying the formula source.
func TestEvalErrorsAreTyped(t *testing.T) {
	env := cols{1, 2, 3}
	badOp := &Expr{root: binNode{op: '%', l: numNode(1), r: numNode(2)}, src: "1%2"}
	if _, err := badOp.Eval(env); err == nil {
		t.Fatal("unknown operator evaluated without error")
	} else {
		var ee *EvalError
		if !errors.As(err, &ee) {
			t.Fatalf("unknown operator error is %T, want *EvalError", err)
		}
		if ee.Formula != "1%2" {
			t.Fatalf("EvalError.Formula = %q, want the expression source", ee.Formula)
		}
	}
	badFn := &Expr{root: callNode{name: "median", args: []node{numNode(1)}}, src: "median(1)"}
	if _, err := badFn.Eval(env); err == nil {
		t.Fatal("unknown function evaluated without error")
	} else if !strings.Contains(err.Error(), "median") {
		t.Fatalf("error does not name the function: %v", err)
	}
	// The error must also propagate out of nested expressions.
	nested := &Expr{root: binNode{op: '+', l: numNode(1), r: callNode{name: "median", args: []node{numNode(1)}}}, src: "1+median(1)"}
	if _, err := nested.Eval(env); err == nil {
		t.Fatal("nested unknown function evaluated without error")
	}
}

// A formula that does not compile is refused when it is registered: a
// store evaluates a derived column on its first read, which cannot report
// an error. Parse only builds trees that compile, so the failing formula
// is built by hand.
func TestCompileErrorAtRegistration(t *testing.T) {
	r := NewRegistry()
	if _, err := r.AddRaw("c", "cycles", 1); err != nil {
		t.Fatal(err)
	}
	bad := &Expr{root: binNode{op: '%', l: colNode(0), r: numNode(2)}, src: "$0%2", refs: []int{0}}
	_, err := r.addDerived("bad", bad)
	var ee *EvalError
	if !errors.As(err, &ee) || !strings.Contains(err.Error(), `"bad"`) {
		t.Fatalf("registering an uncompilable formula returned %v, want an *EvalError naming the column", err)
	}
	if r.Len() != 1 || r.ByName("bad") != nil {
		t.Fatalf("the refused formula was registered: %d columns", r.Len())
	}
}
