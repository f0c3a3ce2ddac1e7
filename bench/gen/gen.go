// Package gen makes the benchmark's inputs from a seed and nothing else.
// It imports no package of the system under test: it describes programs
// and calling context trees as plain data, and bench/sut.go turns the
// descriptions into the system's own types. One seed always gives the same
// description; sizes (scope counts, fan-outs, trip counts) never depend on
// the seed, so runs on different seeds do the same amount of work and only
// the shape and the costs differ.
package gen

import (
	"fmt"
	"math/rand"
)

// StmtKind selects what a Stmt of a generated program does.
type StmtKind uint8

const (
	Work    StmtKind = iota // Cycles of straight-line work
	Loop                    // Trips (+ up to Skew more, by rank) times Body
	Call                    // call Callee
	Recurse                 // call the enclosing procedure while its depth < Depth
	Barrier                 // SPMD barrier
)

// Stmt is one statement of a generated procedure body.
type Stmt struct {
	Kind   StmtKind
	Line   int
	Cycles uint64
	Trips  int64
	Skew   int64
	Depth  int
	Callee string
	Body   []Stmt
}

// Proc is one generated procedure.
type Proc struct {
	Name   string
	File   string
	Line   int
	Inline bool
	Body   []Stmt
}

// ProgramSpec is a whole generated program; execution starts at "main".
type ProgramSpec struct {
	Name  string
	Procs []Proc
}

// ProgramShape fixes the size of a generated program. The number of call
// paths is Fanout^Levels whatever the seed.
type ProgramShape struct {
	Levels int // call depth below main
	Width  int // procedures per level
	Fanout int // distinct callees of every non-leaf procedure
}

// Program builds a levelled call DAG: main calls Fanout procedures of
// level 1, each of those calls Fanout distinct procedures of the next
// level, and so on; the seed chooses which. Every procedure of a level has
// the same body shape and the same costs, so the executed work, the number
// of call paths and the size of the merged tree are the same for every
// seed, and only the wiring differs. Beside the DAG, main calls one
// procedure that is an inlining candidate and one that recurses into itself
// three deep, and ends in a rank-skewed loop and a barrier, so that ranks
// differ and idleness is sampled.
func Program(seed int64, sh ProgramShape) ProgramSpec {
	rng := rand.New(rand.NewSource(seed))
	name := func(level, i int) string { return fmt.Sprintf("p%d_%02d", level, i) }
	calls := func(level int, line *int) []Stmt {
		var out []Stmt
		for _, i := range rng.Perm(sh.Width)[:sh.Fanout] {
			out = append(out, Stmt{Kind: Call, Line: *line, Callee: name(level, i)})
			*line++
		}
		return out
	}
	work := func(line int) Stmt { return Stmt{Kind: Work, Line: line, Cycles: 200} }
	leaf := func(line int) []Stmt {
		return []Stmt{work(line + 1), {Kind: Loop, Line: line + 2, Trips: 4, Body: []Stmt{work(line + 3)}}}
	}

	line := 3
	main := Proc{Name: "main", File: "main.c", Line: 1, Body: []Stmt{work(2)}}
	main.Body = append(main.Body, calls(1, &line)...)
	main.Body = append(main.Body,
		Stmt{Kind: Loop, Line: line, Trips: 50, Body: []Stmt{{Kind: Call, Line: line + 1, Callee: "inlined"}}},
		Stmt{Kind: Loop, Line: line + 2, Trips: 20, Body: []Stmt{{Kind: Call, Line: line + 3, Callee: "recursive"}}},
		Stmt{Kind: Loop, Line: line + 4, Trips: 40, Skew: 40, Body: []Stmt{work(line + 5)}},
		Stmt{Kind: Barrier, Line: line + 6})
	spec := ProgramSpec{Name: "genprog", Procs: []Proc{
		main,
		{Name: "inlined", File: "util.c", Line: 10, Inline: true, Body: leaf(10)},
		{Name: "recursive", File: "util.c", Line: 20, Body: append(leaf(20), Stmt{Kind: Recurse, Line: 24, Depth: 3})},
	}}

	for level := 1; level <= sh.Levels; level++ {
		for i := 0; i < sh.Width; i++ {
			p := Proc{Name: name(level, i), File: fmt.Sprintf("level%d.c", level), Line: 100 * (i + 1)}
			if level == sh.Levels {
				p.Body = leaf(p.Line)
			} else {
				// One callee is called from inside the loop, the rest after it.
				line := p.Line + 4
				cs := calls(level+1, &line)
				p.Body = append([]Stmt{work(p.Line + 1),
					{Kind: Loop, Line: p.Line + 2, Trips: 2, Body: []Stmt{work(p.Line + 3), cs[0]}}}, cs[1:]...)
			}
			spec.Procs = append(spec.Procs, p)
		}
	}
	return spec
}

// ScopeKind classifies a Scope of a generated calling context tree.
type ScopeKind uint8

const (
	Frame ScopeKind = iota
	LoopScope
	StmtScope
)

// Scope is one element of a call path. (Kind, Name, File, Line, ID) is
// unique among the children of one parent.
type Scope struct {
	Kind     ScopeKind
	Name     string // procedure name, frames only
	File     string
	Line     int
	ID       uint64
	CallLine int // frames only
}

// Perturb describes how a second tree differs from the one its seed alone
// would give: a share Drop of the frames lose their subtree (up to dropCap
// statements of it), a share Add of them gain a procedure the baseline
// never called, and every cost is scaled by a factor in
// [1-Scale/2, 1+Scale/2]. With Drop and Add at 0.05 about 5% of the
// statements go and about 6% are new, whatever the seed.
type Perturb struct {
	Seed             int64
	Drop, Add, Scale float64
}

// CCT describes a synthetic calling context tree of exactly Scopes scopes
// (when P is nil) with Cols raw metric columns named M0, M1, ...
type CCT struct {
	Seed   int64
	Scopes int
	Cols   int
	P      *Perturb
}

const (
	cctProcs    = 40
	cctMaxDepth = 30
	// A dropped frame loses at most this many statements with the scopes
	// around them. Subtree sizes are heavy-tailed: without the cap a drop
	// near the root would remove most of the tree, and how much of it would
	// depend on the seed.
	dropCap = 10
)

type open struct {
	file     string
	children int
}

// Emit streams the tree as samples: for every statement scope, the chain
// of scopes from main down to it and one value per column. A scope exists
// because a sample path runs through it, and every frame and loop gets a
// statement the moment it is opened, so no scope is empty. path and values
// are only valid during the callback.
func (c CCT) Emit(emit func(path []Scope, values []float64) error) error {
	rng := rand.New(rand.NewSource(c.Seed))
	var prng *rand.Rand
	if c.P != nil {
		prng = rand.New(rand.NewSource(c.P.Seed))
	}
	path := []Scope{{Kind: Frame, Name: "main", File: "main.c", Line: 1}}
	stack := []open{{file: "main.c"}}
	values := make([]float64, c.Cols)
	dropBelow := 0 // emissions are suppressed while len(stack) >= dropBelow > 0 ...
	dropLeft := 0  // ... for at most this many more statements
	created := 1

	sample := func(leaf Scope) error {
		// The structural generator is consumed whether or not the sample is
		// emitted, so a perturbed tree stays aligned with its baseline.
		for i := range values {
			values[i] = 0
			if i == 0 || rng.Intn(1<<i) == 0 { // column i is set on 1/2^i of the statements
				values[i] = float64(rng.Intn(100) + 1)
			}
		}
		if dropBelow > 0 {
			if dropLeft--; dropLeft == 0 {
				dropBelow = 0
			}
			return nil
		}
		if prng != nil {
			k := 1 - c.P.Scale/2 + c.P.Scale*prng.Float64()
			for i := range values {
				values[i] *= k
			}
		}
		return emit(append(path, leaf), values)
	}
	stmt := func() error {
		top := &stack[len(stack)-1]
		top.children++
		created++
		return sample(Scope{Kind: StmtScope, File: top.file, Line: top.children})
	}
	push := func(s Scope, file string) error {
		path = append(path, s)
		stack = append(stack, open{file: file})
		created++
		return stmt()
	}

	if err := stmt(); err != nil {
		return err
	}
	for created < c.Scopes {
		op := rng.Intn(6)
		switch {
		case c.Scopes-created < 2:
			op = 3 // a frame or loop needs room for its first statement
		case len(stack) > cctMaxDepth:
			op = 5
		}
		top := &stack[len(stack)-1]
		var err error
		switch op {
		case 0, 1:
			top.children++
			proc := rng.Intn(cctProcs)
			file := fmt.Sprintf("proc%02d.c", proc)
			fr := Scope{Kind: Frame, Name: fmt.Sprintf("proc%02d", proc), File: file, Line: 10,
				ID: uint64(top.children), CallLine: top.children}
			added := false
			if prng != nil && dropBelow == 0 {
				switch r := prng.Float64(); {
				case r < c.P.Drop:
					dropBelow, dropLeft = len(stack)+1, dropCap
				case r < c.P.Drop+c.P.Add:
					added = true
				}
			}
			err = push(fr, file)
			if err == nil && added {
				extra := Scope{Kind: Frame, Name: "added", File: "added.c", Line: 10, ID: 1 << 32, CallLine: 1 << 20}
				for l := 1; l <= 3 && err == nil; l++ {
					for i := range values {
						values[i] = float64(prng.Intn(100) + 1)
					}
					err = emit(append(path, extra, Scope{Kind: StmtScope, File: "added.c", Line: 10 + l}), values)
				}
			}
		case 2:
			top.children++
			err = push(Scope{Kind: LoopScope, File: top.file, Line: top.children, ID: uint64(top.children)}, top.file)
		case 3, 4:
			err = stmt()
		case 5:
			if len(stack) > 1 {
				path = path[:len(path)-1]
				stack = stack[:len(stack)-1]
				if len(stack) < dropBelow {
					dropBelow = 0
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
