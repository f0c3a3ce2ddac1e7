package gen

import (
	"fmt"
	"reflect"
	"testing"
)

func TestProgramDeterministicAndShaped(t *testing.T) {
	sh := ProgramShape{Levels: 4, Width: 6, Fanout: 3}
	a, b := Program(7, sh), Program(7, sh)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two programs")
	}
	if reflect.DeepEqual(a, Program(8, sh)) {
		t.Fatal("two seeds gave one program")
	}
	if want := 3 + sh.Levels*sh.Width; len(a.Procs) != want {
		t.Fatalf("%d procedures, want %d", len(a.Procs), want)
	}
	// Every procedure above the last level calls Fanout distinct procedures
	// of the next level, whatever the seed.
	var calls func(body []Stmt) []string
	calls = func(body []Stmt) []string {
		var out []string
		for _, s := range body {
			if s.Kind == Call {
				out = append(out, s.Callee)
			}
			out = append(out, calls(s.Body)...)
		}
		return out
	}
	inline, recursive := 0, 0
	for _, p := range a.Procs[3 : 3+(sh.Levels-1)*sh.Width] {
		cs := calls(p.Body)
		distinct := map[string]bool{}
		for _, c := range cs {
			distinct[c] = true
		}
		if len(cs) != sh.Fanout || len(distinct) != sh.Fanout {
			t.Errorf("%s calls %v, want %d distinct callees", p.Name, cs, sh.Fanout)
		}
	}
	for _, p := range a.Procs {
		if p.Inline {
			inline++
		}
		for _, s := range p.Body {
			if s.Kind == Recurse {
				recursive++
			}
		}
	}
	if inline != 1 || recursive != 1 {
		t.Errorf("%d inline and %d recursive procedures, want one of each", inline, recursive)
	}
}

// collect returns the distinct scopes of a tree, keyed by their path, and
// the sum of every emitted value.
func collect(t *testing.T, c CCT) (map[string]bool, float64) {
	t.Helper()
	scopes := map[string]bool{}
	sum := 0.0
	err := c.Emit(func(path []Scope, values []float64) error {
		key := ""
		for _, s := range path {
			key += fmt.Sprintf("/%d:%s:%s:%d:%d", s.Kind, s.Name, s.File, s.Line, s.ID)
			scopes[key] = true
		}
		if path[len(path)-1].Kind != StmtScope || len(values) != c.Cols {
			t.Fatalf("sample at %s with %d values", key, len(values))
		}
		for _, v := range values {
			sum += v
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return scopes, sum
}

func TestCCTExactSizeAndDeterministic(t *testing.T) {
	for _, n := range []int{10, 1001, 20000} {
		for seed := int64(1); seed <= 3; seed++ {
			scopes, _ := collect(t, CCT{Seed: seed, Scopes: n, Cols: 4})
			if len(scopes) != n {
				t.Errorf("seed %d: %d scopes, want exactly %d", seed, len(scopes), n)
			}
		}
	}
	a, sumA := collect(t, CCT{Seed: 5, Scopes: 5000, Cols: 3})
	b, sumB := collect(t, CCT{Seed: 5, Scopes: 5000, Cols: 3})
	if !reflect.DeepEqual(a, b) || sumA != sumB {
		t.Error("one seed gave two trees")
	}
	if c, _ := collect(t, CCT{Seed: 6, Scopes: 5000, Cols: 3}); reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one tree")
	}
}

// TestPerturbedTreeStaysAligned: the perturbed tree drops and adds a few
// per cent of the baseline's scopes and shares the rest with it.
func TestPerturbedTreeStaysAligned(t *testing.T) {
	base := CCT{Seed: 9, Scopes: 20000, Cols: 2}
	a, _ := collect(t, base)
	base.P = &Perturb{Seed: 10, Drop: 0.05, Add: 0.05, Scale: 0.4}
	b, _ := collect(t, base)
	shared, added := 0, 0
	for s := range b {
		if a[s] {
			shared++
		} else {
			added++
		}
	}
	dropped := len(a) - shared
	if shared < len(a)*7/10 || dropped == 0 || added == 0 {
		t.Errorf("perturbed tree shares %d of %d scopes, drops %d, adds %d", shared, len(a), dropped, added)
	}
}
