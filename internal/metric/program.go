package metric

import (
	"fmt"
	"math"
)

// A Program is a derived-metric formula compiled once into a small postfix
// stack program, so evaluation over a whole metric column is a tight loop
// over slabs instead of a per-scope walk of the expression tree. The
// instruction semantics mirror the tree evaluator exactly — same operand
// order, same divide-by-zero and log-domain conventions, left fold for
// variadic min/max — so compiled and interpreted evaluation are bitwise
// identical.

type opCode uint8

const (
	opConst opCode = iota // push val
	opCol                 // push column refs[n]
	opNeg                 // negate top
	opAdd                 // pop b, a; push a+b
	opSub                 // pop b, a; push a-b
	opMul                 // pop b, a; push a*b
	opDiv                 // pop b, a; push a/b (0 when b == 0)
	opPow                 // pop b, a; push pow(a, b)
	opAbs                 // abs(top)
	opSqrt                // sqrt(top)
	opLog                 // log(top), 0 for top <= 0
	opExp                 // exp(top)
	opMin                 // pop n args; push left-fold min
	opMax                 // pop n args; push left-fold max
)

type instr struct {
	op  opCode
	n   int32   // opCol: index into refs; opMin/opMax: argument count
	val float64 // opConst
}

// Program is a compiled formula.
type Program struct {
	code  []instr
	refs  []int // referenced column ids, ascending (shared with the Expr)
	depth int   // maximum evaluation stack depth
}

// ColumnRefs returns the distinct column ids the program reads, ascending.
// The slice is shared; callers must not modify it.
func (p *Program) ColumnRefs() []int { return p.refs }

// Compile lowers the expression to a stack program. Expressions produced by
// Parse always compile; hand-built trees with an operator or function the
// evaluator does not implement return the same *EvalError their tree
// evaluation would.
func (e *Expr) Compile() (*Program, error) {
	p := &Program{refs: e.refs}
	refIdx := make(map[int]int32, len(e.refs))
	for i, r := range e.refs {
		refIdx[r] = int32(i)
	}
	cur, max := 0, 0
	push := func(in instr, delta int) {
		p.code = append(p.code, in)
		cur += delta
		if cur > max {
			max = cur
		}
	}
	var emit func(n node) error
	emit = func(n node) error {
		switch n := n.(type) {
		case numNode:
			push(instr{op: opConst, val: float64(n)}, 1)
		case colNode:
			push(instr{op: opCol, n: refIdx[int(n)]}, 1)
		case unaryNode:
			if err := emit(n.x); err != nil {
				return err
			}
			push(instr{op: opNeg}, 0)
		case binNode:
			if err := emit(n.l); err != nil {
				return err
			}
			if err := emit(n.r); err != nil {
				return err
			}
			var op opCode
			switch n.op {
			case '+':
				op = opAdd
			case '-':
				op = opSub
			case '*':
				op = opMul
			case '/':
				op = opDiv
			case '^':
				op = opPow
			default:
				return &EvalError{Formula: e.src, Detail: fmt.Sprintf("unknown operator %q", string(n.op))}
			}
			push(instr{op: op}, -1)
		case callNode:
			for _, a := range n.args {
				if err := emit(a); err != nil {
					return err
				}
			}
			switch n.name {
			case "abs":
				push(instr{op: opAbs}, 0)
			case "sqrt":
				push(instr{op: opSqrt}, 0)
			case "log":
				push(instr{op: opLog}, 0)
			case "exp":
				push(instr{op: opExp}, 0)
			case "pow":
				push(instr{op: opPow}, -1)
			case "min":
				push(instr{op: opMin, n: int32(len(n.args))}, -(len(n.args) - 1))
			case "max":
				push(instr{op: opMax, n: int32(len(n.args))}, -(len(n.args) - 1))
			default:
				return &EvalError{Formula: e.src, Detail: fmt.Sprintf("unknown function %q", n.name)}
			}
		default:
			return &EvalError{Formula: e.src, Detail: "unknown expression node"}
		}
		return nil
	}
	if err := emit(e.root); err != nil {
		return nil, err
	}
	p.depth = max
	return p, nil
}

// step executes the program over one row's column values: vals[i] holds the
// value of column ColumnRefs()[i]. The stack must have at least depth slots.
func (p *Program) step(stack, vals []float64) float64 {
	sp := 0
	for _, in := range p.code {
		switch in.op {
		case opConst:
			stack[sp] = in.val
			sp++
		case opCol:
			stack[sp] = vals[in.n]
			sp++
		case opNeg:
			stack[sp-1] = -stack[sp-1]
		case opAdd:
			stack[sp-2] += stack[sp-1]
			sp--
		case opSub:
			stack[sp-2] -= stack[sp-1]
			sp--
		case opMul:
			stack[sp-2] *= stack[sp-1]
			sp--
		case opDiv:
			if stack[sp-1] == 0 {
				stack[sp-2] = 0
			} else {
				stack[sp-2] /= stack[sp-1]
			}
			sp--
		case opPow:
			stack[sp-2] = math.Pow(stack[sp-2], stack[sp-1])
			sp--
		case opAbs:
			stack[sp-1] = math.Abs(stack[sp-1])
		case opSqrt:
			stack[sp-1] = math.Sqrt(stack[sp-1])
		case opLog:
			if stack[sp-1] <= 0 {
				stack[sp-1] = 0
			} else {
				stack[sp-1] = math.Log(stack[sp-1])
			}
		case opExp:
			stack[sp-1] = math.Exp(stack[sp-1])
		case opMin:
			k := int(in.n)
			m := stack[sp-k]
			for _, v := range stack[sp-k+1 : sp] {
				m = math.Min(m, v)
			}
			sp -= k - 1
			stack[sp-1] = m
		case opMax:
			k := int(in.n)
			m := stack[sp-k]
			for _, v := range stack[sp-k+1 : sp] {
				m = math.Max(m, v)
			}
			sp -= k - 1
			stack[sp-1] = m
		}
	}
	return stack[sp-1]
}

// evalStackSize is the fixed stack that covers every realistic formula; a
// deeper program falls back to one heap slab per call. evalRefsSize bounds
// the stack-resident prefetch buffer the same way.
const (
	evalStackSize = 16
	evalRefsSize  = 8
)

// EvalEnv evaluates the program for one scope with column values from env.
// Bitwise-identical to Expr.Eval on the same formula.
func (p *Program) EvalEnv(env Env) float64 {
	var sbuf [evalStackSize]float64
	var vbuf [evalRefsSize]float64
	stack, vals := sbuf[:], vbuf[:]
	if p.depth > len(stack) {
		stack = make([]float64, p.depth)
	}
	if len(p.refs) > len(vals) {
		vals = make([]float64, len(p.refs))
	}
	for i, id := range p.refs {
		vals[i] = env.Column(id)
	}
	v := p.step(stack, vals)
	if v == 0 {
		return 0 // normalize -0, which the store never holds
	}
	return v
}

// EvalCols runs the program as a vectorized kernel: dst[r] is the program
// applied to row r of the prefetched column slabs (cols[i] holds the column
// ColumnRefs()[i], at least len(dst) long). Steady-state evaluation is
// allocation-free.
func (p *Program) EvalCols(dst []float64, cols [][]float64) {
	var sbuf [evalStackSize]float64
	var vbuf [evalRefsSize]float64
	stack, vals := sbuf[:], vbuf[:]
	if p.depth > len(stack) {
		stack = make([]float64, p.depth)
	}
	if len(cols) > len(vals) {
		vals = make([]float64, len(cols))
	}
	for r := range dst {
		for i, c := range cols {
			vals[i] = c[r]
		}
		v := p.step(stack, vals)
		if v == 0 {
			v = 0 // normalize -0
		}
		dst[r] = v
	}
}
