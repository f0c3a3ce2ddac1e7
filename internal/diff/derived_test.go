package diff

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
)

// TestComparisonCellsReadTheirFormulas pins the read path the comparison
// columns are served through: on every row of a union and on both planes,
// Node.Incl.Get and Node.Excl.Get of each comparison column equal its
// formula evaluated over the row's own cells — after Diff, after
// Recompute, and after ComputeMetrics followed by Recompute. A self-diff
// has zero deltas, and swapped inputs negate them, also when every
// comparison cell reads zero, so those checks do not guard this path.
func TestComparisonCellsReadTheirFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	res, err := Diff(Config{}, Input{Exp: randExp(t, rng, 4)}, Input{Exp: randExp(t, rng, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeWeak {
		t.Fatalf("mode %v, want weak: the loss columns must be read too", res.Mode)
	}
	check := func(when string) {
		t.Helper()
		nonzero := 0
		core.Walk(res.Tree.Root, func(n *core.Node) bool {
			for _, d := range res.Tree.Reg.Columns() {
				if d.Kind != metric.Derived {
					continue
				}
				e, err := d.Expr()
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range []*metric.View{&n.Incl, &n.Excl} {
					want, err := e.Eval(metric.EnvFunc(v.Get))
					if err != nil {
						t.Fatal(err)
					}
					got := v.Get(d.ID)
					if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s: %s at %s reads %v, want %v over %s", when, d.Name, n.Label(), got, want, v.String())
					}
					if got != 0 {
						nonzero++
					}
				}
			}
			return true
		})
		if nonzero == 0 {
			t.Fatalf("%s: every comparison cell reads zero", when)
		}
	}
	check("after Diff")
	res.Recompute()
	check("after Recompute")
	res.Tree.ComputeMetrics()
	res.Recompute()
	check("after ComputeMetrics and Recompute")
}
