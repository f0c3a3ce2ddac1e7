// Equivalence tests for the differential profiling engine (hpcdiff). The
// structural union, the per-input column fill and the whole-column
// delta/ratio/loss kernels are columnar for speed; every value they
// produce must stay bitwise identical to a straightforward per-node
// reference built on key-path correspondence between the input trees and
// the scalar formulas — across every workload, rank pairing and database
// format version. A final test reproduces the paper's headline use: the
// scaling-loss ranking that localizes a weak-scaling bottleneck.
package repro

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/oracle"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// --- reference implementation ----------------------------------------------

// refDiffCorrespond walks the union tree and, per node, resolves the
// corresponding node in each input tree by key path (nil when absent),
// the same matching rule the union builder's map uses.
func refDiffCorrespond(res *diff.Result, ins []*expdb.Experiment) (map[*core.Node][]*core.Node, error) {
	match := map[*core.Node][]*core.Node{}
	var walk func(un *core.Node, cur []*core.Node)
	walk = func(un *core.Node, cur []*core.Node) {
		match[un] = cur
		for _, c := range un.Children {
			next := make([]*core.Node, len(cur))
			for i, in := range cur {
				if in == nil {
					continue
				}
				for _, cc := range in.Children {
					if cc.Key == c.Key {
						next[i] = cc
						break
					}
				}
			}
			walk(c, next)
		}
	}
	roots := make([]*core.Node, len(ins))
	for i := range ins {
		roots[i] = ins[i].Tree.Root
	}
	walk(res.Tree.Root, roots)

	// Completeness: every input scope must appear in the union — the walk
	// above only proves union scopes trace back to some input.
	for i, in := range ins {
		var check func(in, un *core.Node) error
		check = func(in, un *core.Node) error {
			for _, c := range in.Children {
				var uc *core.Node
				for _, cc := range un.Children {
					if cc.Key == c.Key {
						uc = cc
						break
					}
				}
				if uc == nil {
					return fmt.Errorf("input %d scope %q missing from the union", i, c.Label())
				}
				if err := check(c, uc); err != nil {
					return err
				}
			}
			return nil
		}
		if err := check(in.Tree.Root, res.Tree.Root); err != nil {
			return nil, err
		}
	}
	return match, nil
}

// norm0 is the kernels' negative-zero normalization: slab results that
// compare equal to zero are stored as +0.
func norm0(v float64) float64 {
	if v == 0 {
		v = 0
	}
	return v
}

// checkDiffEquiv verifies one diff result bitwise against the per-node
// reference: base fill from the inputs, inclusive/exclusive aggregation
// via the Equations 1-2 reference, the delta/ratio/loss formulas applied
// per node, and presence flags from the correspondence itself.
func checkDiffEquiv(t *testing.T, res *diff.Result, ins []*expdb.Experiment) {
	t.Helper()
	match, err := refDiffCorrespond(res, ins)
	if err != nil {
		t.Fatal(err)
	}

	// Input parameters the reference formulas share with the engine.
	for i, info := range res.Inputs {
		wantNorm := 1.0
		if res.PerRank {
			wantNorm = 1 / float64(info.Ranks)
		}
		if info.Norm != wantNorm {
			t.Fatalf("input %d norm = %v, want %v", i, info.Norm, wantNorm)
		}
	}

	// Per-input source columns, input-major like the union builder's.
	src := make([][]int, len(ins))
	for i, in := range ins {
		src[i] = make([]int, len(res.Metrics))
		for mi := range res.Metrics {
			d := in.Tree.Reg.ByName(res.Metrics[mi].Name)
			if d == nil {
				t.Fatalf("input %d lacks compared metric %s", i, res.Metrics[mi].Name)
			}
			src[i][mi] = d.ID
		}
	}

	// Base plane: each union scope's per-input columns are the input's
	// base costs scaled by its normalization; everything else is zero.
	ncols := res.Tree.Reg.Len()
	bitwise := func(n *core.Node, what string, col int, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s col %d = %v (%#x), reference %v (%#x)",
				n.Label(), what, col, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for un, cur := range match {
		vec := make([]float64, ncols)
		if un != res.Tree.Root { // the union root carries no base costs
			for i, in := range cur {
				if in == nil {
					continue
				}
				for mi := range res.Metrics {
					if v := in.Base.Get(src[i][mi]); v != 0 {
						vec[res.Metrics[mi].In[i]] = v * res.Inputs[i].Norm
					}
				}
			}
		}
		for id := 0; id < ncols; id++ {
			bitwise(un, "base", id, un.Base.Get(id), vec[id])
		}
	}

	// Presented planes: the per-input columns aggregated from the base
	// values verified above by Equations 1-2 over the union's own child
	// order, and the comparison columns as their formulas, both as the
	// oracle gives them; then the formulas themselves, per node and plane,
	// read over those per-input values.
	if err := oracle.CCT(res.Tree).Check([]*core.Node{res.Tree.Root}, 0); err != nil {
		t.Fatal(err)
	}
	for un := range match {
		for mi := range res.Metrics {
			mc := &res.Metrics[mi]
			for ii := 1; ii < len(res.Inputs); ii++ {
				f := res.Inputs[ii].Factor
				for _, plane := range []struct {
					name string
					get  func(int) float64
				}{
					{"incl", un.Incl.Get},
					{"excl", un.Excl.Get},
				} {
					av := plane.get(mc.In[0])
					bv := plane.get(mc.In[ii])
					bitwise(un, plane.name+" delta", mc.Delta[ii-1], plane.get(mc.Delta[ii-1]), norm0(bv-av))
					var qv float64
					if av != 0 {
						qv = norm0(bv / av)
					}
					bitwise(un, plane.name+" ratio", mc.Ratio[ii-1], plane.get(mc.Ratio[ii-1]), qv)
					if mc.Loss != nil {
						var lv float64
						if bv != 0 {
							lv = norm0(1 - av*f/bv)
						}
						bitwise(un, plane.name+" loss", mc.Loss[ii-1], plane.get(mc.Loss[ii-1]), lv)
					}
				}
			}
		}
	}

	// Presence: flags and columns must equal the correspondence itself.
	for un, cur := range match {
		for i := range res.Inputs {
			want := un == res.Tree.Root || cur[i] != nil
			if got := res.PresentIn(un, i); got != want {
				t.Fatalf("%s: PresentIn(%d) = %v, correspondence says %v", un.Label(), i, got, want)
			}
			wantV := 0.0
			if want {
				wantV = 1
			}
			col := res.Inputs[i].PresenceCol
			bitwise(un, "presence incl", col, un.Incl.Get(col), wantV)
			bitwise(un, "presence excl", col, un.Excl.Get(col), wantV)
		}
	}
}

// --- the matrix -------------------------------------------------------------

// TestDiffEquivalence runs the full matrix the columnar diff must be
// invisible across: every workload, baseline vs {1, 7, 64} ranks (same
// ranks exercises ModeNone, differing ranks auto-select weak scaling with
// per-rank normalization), with both inputs round-tripped through each
// binary format version first.
func TestDiffEquivalence(t *testing.T) {
	formats := []struct {
		name  string
		write func(*expdb.Experiment, *bytes.Buffer) error
	}{
		{"v2", func(e *expdb.Experiment, b *bytes.Buffer) error { return e.WriteBinary(b) }},
		{"v1", func(e *expdb.Experiment, b *bytes.Buffer) error { return e.WriteBinaryV1(b) }},
		{"v3", func(e *expdb.Experiment, b *bytes.Buffer) error { return e.WriteBinaryV3(b) }},
	}
	rt := func(t *testing.T, e *expdb.Experiment, write func(*expdb.Experiment, *bytes.Buffer) error) *expdb.Experiment {
		t.Helper()
		var buf bytes.Buffer
		if err := write(e, &buf); err != nil {
			t.Fatal(err)
		}
		out, err := expdb.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, name := range workloads.Names() {
		base := equivExperiment(t, name, 1)
		for _, ranks := range []int{1, 7, 64} {
			other := equivExperiment(t, name, ranks)
			for _, f := range formats {
				t.Run(fmt.Sprintf("%s/ranks=1v%d/%s", name, ranks, f.name), func(t *testing.T) {
					a, b := rt(t, base, f.write), rt(t, other, f.write)
					res, err := diff.Diff(diff.Config{},
						diff.Input{Label: "A", Exp: a}, diff.Input{Label: "B", Exp: b})
					if err != nil {
						t.Fatal(err)
					}
					wantMode := diff.ModeWeak
					if ranks == 1 {
						wantMode = diff.ModeNone
					}
					if res.Mode != wantMode {
						t.Fatalf("auto mode = %s, want %s", res.Mode, wantMode)
					}
					checkDiffEquiv(t, res, []*expdb.Experiment{a, b})
				})
			}
		}
	}
}

// TestDiffScalingLossRanking reproduces the paper's scaling-loss analysis
// on the PFLOTRAN analogue: diffing the same problem at 64 and 1024 ranks
// under weak scaling must rank the global reduction — whose cost grows
// with the rank count by construction — as the top source of scaling
// loss, with the compute phases near-ideal.
func TestDiffScalingLossRanking(t *testing.T) {
	spec, err := workloads.ByName("pflotran")
	if err != nil {
		t.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	at := func(ranks int) *expdb.Experiment {
		profs, err := mpi.Run(im, mpi.Config{NRanks: ranks,
			Params: map[string]int64{"cells": 60, "species": 5},
			Events: sampler.DefaultEvents(spec.Period)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := merge.Profiles(doc, profs)
		if err != nil {
			t.Fatal(err)
		}
		return expdb.FromMerge(res)
	}
	res, err := diff.Diff(diff.Config{Metrics: []string{"CYCLES"}},
		diff.Input{Label: "n64", Exp: at(64)},
		diff.Input{Label: "n1024", Exp: at(1024)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != diff.ModeWeak || !res.PerRank {
		t.Fatalf("auto-selected %s/perRank=%v, want weak per-rank", res.Mode, res.PerRank)
	}
	rep, err := res.Report(diff.ReportOptions{Metric: "CYCLES"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) == 0 {
		t.Fatal("no regressions reported for a 16x rank scale-up")
	}
	top := rep.Regressions[0]
	proc := top.Path[len(top.Path)-1]
	if proc != "reduce_residual" {
		t.Fatalf("top scaling regression is %q (path %v), want reduce_residual", proc, top.Path)
	}
	if top.Loss <= 0.5 {
		t.Fatalf("reduce_residual loss = %v, want a dominant (>0.5) loss fraction", top.Loss)
	}
	// The linear all-gather model predicts ~16x per-rank growth.
	if top.Ratio < 8 || top.Ratio > 32 {
		t.Fatalf("reduce_residual per-rank ratio = %v, want ~16x", top.Ratio)
	}
	// The compute phases scale near-ideally: any loss they report must be
	// far below the reduction's.
	for _, e := range rep.Regressions[1:] {
		if p := e.Path[len(e.Path)-1]; p == "flow_solve" || p == "transport_solve" {
			if e.Loss > top.Loss/2 {
				t.Fatalf("compute phase %s loss = %v rivals the reduction's %v", p, e.Loss, top.Loss)
			}
		}
	}
	// And the whole-program totals must blame the loss on the reduction:
	// total loss is positive but below the reduction scope's own.
	if rep.TotalLoss <= 0 || rep.TotalLoss >= top.Loss {
		t.Fatalf("total loss %v not between 0 and the top scope's %v", rep.TotalLoss, top.Loss)
	}
}
