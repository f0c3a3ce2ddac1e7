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
	// One instruction per node.
	p := &Program{refs: e.refs, code: make([]instr, 0, e.size)}
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

// evalStackSize is the stack depth that covers every realistic formula.
// evalBlock is the number of rows EvalCols carries through the program at
// once: evalStackSize slots of evalBlock values are 32 KiB, still on the
// goroutine stack.
const (
	evalStackSize = 16
	evalBlock     = 256
)

// ownSlot marks a stack slot whose values live in its own buffer; a slot at
// or above 0 reads column src[s] in place.
const ownSlot = -1

// EvalCols runs the program as a vectorized kernel: dst[r] is the program
// applied to row r of the prefetched column slabs (cols[i] holds the column
// ColumnRefs()[i]; rows past a slab's end read zero), evalBlock rows at a
// time.
// Steady-state evaluation is allocation-free. A program deeper than
// evalStackSize carries fewer rows at a time through the same buffer; one
// deeper than the buffer has values carries one row in a heap stack of
// depth values.
func (p *Program) EvalCols(dst []float64, cols [][]float64) {
	var sbuf [evalStackSize * evalBlock]float64
	var srcbuf [evalStackSize]int32
	stack, src, block := sbuf[:], srcbuf[:], evalBlock
	if p.depth > evalStackSize {
		block, src = max(len(sbuf)/p.depth, 1), make([]int32, p.depth)
		if p.depth > len(sbuf) {
			stack = make([]float64, p.depth)
		}
	}
	for lo := 0; lo < len(dst); lo += block {
		p.run(stack, src, block, cols, lo, dst[lo:min(lo+block, len(dst))])
	}
}

// run executes the program over the len(out) ≤ block rows at lo of cols
// into out, which must not alias them. Each instruction runs over the whole
// block, applying per row the IEEE operation Expr.Eval applies, so the
// results are Expr.Eval's bit for bit, except that the last instruction adds
// +0 (-0 + 0 is +0, and every other value is unchanged) where the others add
// -0.
// Slot 0's buffer is out; slot s reads column src[s] in place or owns
// stack[s*block:] (ownSlot), which a constant or a short column fills.
// Slots hold indexes, not slices: storing a slice of a stack buffer moves
// the buffer to the heap.
func (p *Program) run(stack []float64, src []int32, block int, cols [][]float64, lo int, out []float64) {
	n := len(out)
	arg := func(s int) []float64 {
		switch {
		case src[s] != ownSlot:
			return cols[src[s]][lo : lo+n]
		case s == 0:
			return out
		}
		return stack[s*block : s*block+n]
	}
	own := func(s int) []float64 {
		src[s] = ownSlot
		return arg(s)
	}
	sp, last := 0, len(p.code)-1
	for j, in := range p.code {
		z := negZero
		if j == last {
			z = 0
		}
		switch in.op {
		case opConst:
			c := own(sp)
			for i := range c {
				c[i] = in.val
			}
			sp++
		case opCol:
			if col := cols[in.n]; len(col) >= lo+n {
				src[sp] = in.n
			} else { // a short slab: its rows, then zeros
				c := own(sp)
				clear(c[copy(c, col[min(lo, len(col)):]):])
			}
			sp++
		case opNeg, opAbs, opSqrt, opLog, opExp:
			x := arg(sp - 1)
			unaryBlock(in.op, own(sp-1), x, z)
		case opMin, opMax:
			k := int(in.n)
			for s := sp - k + 1; s < sp; s++ {
				x := arg(sp - k)
				binaryBlock(in.op, own(sp-k), x, arg(s), negZero)
			}
			sp -= k - 1
		default:
			x, y := arg(sp-2), arg(sp-1)
			binaryBlock(in.op, own(sp-2), x, y, z)
			sp--
		}
	}
	if op := p.code[last].op; op <= opCol || op >= opMin { // opCode order: these add no z
		for i, v := range arg(0) {
			out[i] = v + 0
		}
	}
}

// negZero is -0, which x + negZero leaves x for every x.
var negZero = math.Copysign(0, -1)

// unaryBlock applies a one-operand instruction: out[i] = op(x[i]) + z. out
// may be x.
func unaryBlock(op opCode, out, x []float64, z float64) {
	x = x[:len(out)]
	switch op {
	case opNeg:
		for i, v := range x {
			out[i] = -v + z
		}
	case opAbs:
		for i, v := range x {
			out[i] = math.Abs(v) + z
		}
	case opSqrt:
		for i, v := range x {
			out[i] = math.Sqrt(v) + z
		}
	case opLog:
		for i, v := range x {
			if v <= 0 {
				out[i] = 0
			} else {
				out[i] = math.Log(v) + z
			}
		}
	case opExp:
		for i, v := range x {
			out[i] = math.Exp(v) + z
		}
	}
}

// binaryBlock applies a two-operand instruction, or folds one more min or
// max argument: out[i] = (x[i] op y[i]) + z. out may be x.
func binaryBlock(op opCode, out, x, y []float64, z float64) {
	x, y = x[:len(out)], y[:len(out)]
	switch op {
	case opAdd:
		for i := range out {
			out[i] = x[i] + y[i] + z
		}
	case opSub:
		for i := range out {
			out[i] = x[i] - y[i] + z
		}
	case opMul:
		for i := range out {
			out[i] = float64(x[i]*y[i]) + z // the conversion forbids a fused multiply-add
		}
	case opDiv:
		for i := range out {
			if y[i] == 0 {
				out[i] = 0
			} else {
				out[i] = x[i]/y[i] + z
			}
		}
	case opPow:
		for i := range out {
			out[i] = math.Pow(x[i], y[i]) + z
		}
	case opMin:
		for i := range out {
			out[i] = math.Min(x[i], y[i]) + z
		}
	case opMax:
		for i := range out {
			out[i] = math.Max(x[i], y[i]) + z
		}
	}
}
