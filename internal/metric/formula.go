package metric

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The derived-metric formula language (Section V-D of the paper):
//
//	expr   := term (('+' | '-') term)*
//	term   := power (('*' | '/') power)*
//	power  := unary ('^' power)?            // right associative
//	unary  := '-' unary | primary
//	primary:= number | '$' digits | ident '(' args ')' | '(' expr ')'
//	args   := expr (',' expr)*
//
// $n refers to the value of metric column n for the scope being evaluated,
// exactly as in hpcviewer's derived-metric dialog. The supported functions
// are min, max, abs, sqrt, log, exp and pow.

// Env supplies column values to an expression evaluation.
type Env interface {
	// Column returns the value of metric column id for the current scope.
	Column(id int) float64
}

// EnvFunc adapts a function to the Env interface.
type EnvFunc func(id int) float64

// Column implements Env.
func (f EnvFunc) Column(id int) float64 { return f(id) }

// Expr is a compiled derived-metric formula.
type Expr struct {
	root node
	src  string
	refs []int
	size int // node count: the length of the compiled program
}

// String returns the original formula source.
func (e *Expr) String() string { return e.src }

// ColumnRefs returns the distinct column indices the formula references,
// in ascending order.
func (e *Expr) ColumnRefs() []int { return e.refs }

// EvalError reports a formula that could not be evaluated (an operator or
// function the evaluator does not implement — possible only for expression
// trees not produced by Parse, which validates both). It is a typed error
// rather than a panic so a bad user formula reaches hpcviewer's error
// reporting instead of crashing the process.
type EvalError struct {
	Formula string
	Detail  string
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("metric: formula %q: %s", e.Formula, e.Detail)
}

// Eval evaluates the formula against env. Formulas produced by Parse
// cannot fail; hand-built expression trees may return an *EvalError.
func (e *Expr) Eval(env Env) (float64, error) {
	v, err := e.root.eval(env)
	if err != nil {
		var ee *EvalError
		if errors.As(err, &ee) && ee.Formula == "" {
			ee.Formula = e.src
		}
		return 0, err
	}
	return v, nil
}

// Parse compiles a formula.
func Parse(src string) (*Expr, error) {
	p := &parser{lex: lexer{src: src}}
	p.next()
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("formula %q: unexpected %q at offset %d", src, p.tok.text, p.tok.pos)
	}
	seen := map[int]bool{}
	var refs []int
	size := collectRefs(root, seen, &refs)
	// keep refs sorted ascending
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j-1] > refs[j]; j-- {
			refs[j-1], refs[j] = refs[j], refs[j-1]
		}
	}
	return &Expr{root: root, src: src, refs: refs, size: size}, nil
}

// MustParse is Parse but panics on error; for use with constant formulas.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type node interface {
	eval(Env) (float64, error)
}

type numNode float64

func (n numNode) eval(Env) (float64, error) { return float64(n), nil }

type colNode int

func (n colNode) eval(env Env) (float64, error) { return env.Column(int(n)), nil }

type unaryNode struct{ x node }

func (n unaryNode) eval(env Env) (float64, error) {
	v, err := n.x.eval(env)
	return -v, err
}

type binNode struct {
	op   byte
	l, r node
}

func (n binNode) eval(env Env) (float64, error) {
	a, err := n.l.eval(env)
	if err != nil {
		return 0, err
	}
	b, err := n.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch n.op {
	case '+':
		return a + b, nil
	case '-':
		return a - b, nil
	case '*':
		return a * b, nil
	case '/':
		if b == 0 {
			// Metric tables are sparse; division by an absent metric is
			// common (e.g. efficiency of a scope with no cycles). Treat
			// it as zero rather than propagating Inf/NaN into sorts.
			return 0, nil
		}
		return a / b, nil
	case '^':
		return math.Pow(a, b), nil
	}
	return 0, &EvalError{Detail: fmt.Sprintf("unknown operator %q", string(n.op))}
}

type callNode struct {
	name string
	args []node
}

func (n callNode) eval(env Env) (float64, error) {
	// Small arg lists (every function except variadic min/max with many
	// arguments) evaluate into a stack buffer.
	var buf [4]float64
	vals := buf[:0]
	if len(n.args) > len(buf) {
		vals = make([]float64, 0, len(n.args))
	}
	for _, a := range n.args {
		v, err := a.eval(env)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	switch n.name {
	case "abs":
		return math.Abs(vals[0]), nil
	case "sqrt":
		return math.Sqrt(vals[0]), nil
	case "log":
		if vals[0] <= 0 {
			return 0, nil
		}
		return math.Log(vals[0]), nil
	case "exp":
		return math.Exp(vals[0]), nil
	case "pow":
		return math.Pow(vals[0], vals[1]), nil
	case "min":
		m := vals[0]
		for _, v := range vals[1:] {
			m = math.Min(m, v)
		}
		return m, nil
	case "max":
		m := vals[0]
		for _, v := range vals[1:] {
			m = math.Max(m, v)
		}
		return m, nil
	}
	return 0, &EvalError{Detail: fmt.Sprintf("unknown function %q", n.name)}
}

// collectRefs appends the distinct column references under n to out, in
// first-use order, and returns the number of nodes under n, n included.
func collectRefs(n node, seen map[int]bool, out *[]int) int {
	size := 1
	switch n := n.(type) {
	case colNode:
		if !seen[int(n)] {
			seen[int(n)] = true
			*out = append(*out, int(n))
		}
	case unaryNode:
		size += collectRefs(n.x, seen, out)
	case binNode:
		size += collectRefs(n.l, seen, out) + collectRefs(n.r, seen, out)
	case callNode:
		for _, a := range n.args {
			size += collectRefs(a, seen, out)
		}
	}
	return size
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokNum
	tokCol   // $n
	tokIdent // function name
	tokOp    // + - * / ^ ( ) ,
)

type token struct {
	kind tokKind
	text string
	num  float64
	col  int
	pos  int
}

type lexer struct {
	src string
	off int
}

func (l *lexer) next() (token, error) {
	for l.off < len(l.src) && (l.src[l.off] == ' ' || l.src[l.off] == '\t') {
		l.off++
	}
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: l.off}, nil
	}
	start := l.off
	c := l.src[l.off]
	switch {
	case c == '$':
		l.off++
		d := l.off
		for l.off < len(l.src) && isDigit(l.src[l.off]) {
			l.off++
		}
		if d == l.off {
			return token{}, fmt.Errorf("formula: '$' must be followed by a column number at offset %d", start)
		}
		n, err := strconv.Atoi(l.src[d:l.off])
		if err != nil {
			return token{}, fmt.Errorf("formula: bad column reference %q: %v", l.src[start:l.off], err)
		}
		return token{kind: tokCol, text: l.src[start:l.off], col: n, pos: start}, nil
	case isDigit(c) || c == '.':
		for l.off < len(l.src) && (isDigit(l.src[l.off]) || l.src[l.off] == '.') {
			l.off++
		}
		// scientific notation: 1e9, 2.5e-3
		if l.off < len(l.src) && (l.src[l.off] == 'e' || l.src[l.off] == 'E') {
			save := l.off
			l.off++
			if l.off < len(l.src) && (l.src[l.off] == '+' || l.src[l.off] == '-') {
				l.off++
			}
			if l.off < len(l.src) && isDigit(l.src[l.off]) {
				for l.off < len(l.src) && isDigit(l.src[l.off]) {
					l.off++
				}
			} else {
				l.off = save // 'e' was not an exponent
			}
		}
		text := l.src[start:l.off]
		n, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, fmt.Errorf("formula: bad number %q", text)
		}
		return token{kind: tokNum, text: text, num: n, pos: start}, nil
	case isAlpha(c):
		for l.off < len(l.src) && (isAlpha(l.src[l.off]) || isDigit(l.src[l.off])) {
			l.off++
		}
		return token{kind: tokIdent, text: l.src[start:l.off], pos: start}, nil
	case strings.IndexByte("+-*/^(),", c) >= 0:
		l.off++
		return token{kind: tokOp, text: l.src[start:l.off], pos: start}, nil
	}
	return token{}, fmt.Errorf("formula: unexpected character %q at offset %d", string(c), start)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// --- parser ---

type parser struct {
	lex lexer
	tok token
	err error
}

func (p *parser) next() {
	if p.err != nil {
		return
	}
	p.tok, p.err = p.lex.next()
}

func (p *parser) parseExpr() (node, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text[0]
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = binNode{op: op, l: l, r: r}
	}
	return l, p.err
}

func (p *parser) parseTerm() (node, error) {
	l, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := p.tok.text[0]
		p.next()
		r, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		l = binNode{op: op, l: l, r: r}
	}
	return l, p.err
}

func (p *parser) parsePower() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp && p.tok.text == "^" {
		p.next()
		r, err := p.parsePower() // right associative
		if err != nil {
			return nil, err
		}
		return binNode{op: '^', l: l, r: r}, nil
	}
	return l, p.err
}

func (p *parser) parseUnary() (node, error) {
	if p.tok.kind == tokOp && p.tok.text == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return unaryNode{x: x}, nil
	}
	return p.parsePrimary()
}

var funcArity = map[string][2]int{ // name -> {min args, max args (-1 = unbounded)}
	"abs":  {1, 1},
	"sqrt": {1, 1},
	"log":  {1, 1},
	"exp":  {1, 1},
	"pow":  {2, 2},
	"min":  {1, -1},
	"max":  {1, -1},
}

func (p *parser) parsePrimary() (node, error) {
	if p.err != nil {
		return nil, p.err
	}
	switch p.tok.kind {
	case tokNum:
		n := numNode(p.tok.num)
		p.next()
		return n, p.err
	case tokCol:
		n := colNode(p.tok.col)
		p.next()
		return n, p.err
	case tokIdent:
		name := p.tok.text
		arity, ok := funcArity[name]
		if !ok {
			return nil, fmt.Errorf("formula: unknown function %q at offset %d", name, p.tok.pos)
		}
		p.next()
		if !(p.tok.kind == tokOp && p.tok.text == "(") {
			return nil, fmt.Errorf("formula: expected '(' after %q", name)
		}
		p.next()
		var args []node
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.tok.kind == tokOp && p.tok.text == "," {
				p.next()
				continue
			}
			break
		}
		if !(p.tok.kind == tokOp && p.tok.text == ")") {
			return nil, fmt.Errorf("formula: expected ')' to close %s(...)", name)
		}
		p.next()
		if len(args) < arity[0] || (arity[1] >= 0 && len(args) > arity[1]) {
			return nil, fmt.Errorf("formula: %s takes %d..%d arguments, got %d", name, arity[0], arity[1], len(args))
		}
		return callNode{name: name, args: args}, p.err
	case tokOp:
		if p.tok.text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !(p.tok.kind == tokOp && p.tok.text == ")") {
				return nil, fmt.Errorf("formula: missing ')'")
			}
			p.next()
			return x, p.err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return nil, fmt.Errorf("formula: unexpected %q at offset %d", p.tok.text, p.tok.pos)
}
