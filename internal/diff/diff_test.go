package diff

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/ingest"
	"repro/internal/metric"
	"repro/internal/oracle"
)

// fkey builds a frame key for hand-built trees.
func fkey(name string) core.Key {
	return core.Key{Kind: core.KindFrame, Name: core.Sym(name), File: core.Sym(name + ".c"), Line: 1}
}

func skey(file string, line int) core.Key {
	return core.Key{Kind: core.KindStmt, File: core.Sym(file), Line: line}
}

// newExp builds a store-backed experiment with CYCLES (and optionally
// FLOPS) columns; build populates the tree.
func newExp(t testing.TB, program string, ranks int, cols []string, build func(tr *core.Tree)) *expdb.Experiment {
	t.Helper()
	reg := metric.NewRegistry()
	for _, c := range cols {
		if _, err := reg.AddRaw(c, strings.ToLower(c), 1); err != nil {
			t.Fatal(err)
		}
	}
	tr := core.NewTree(program, reg)
	build(tr)
	tr.ComputeMetrics()
	e := expdb.New(tr)
	e.NRanks = ranks
	return e
}

// twoProcTree puts work in main->f and main->g->stmt.
func twoProcTree(tr *core.Tree) {
	f := tr.AddPath(fkey("main"), fkey("f"))
	f.Base.Add(0, 100)
	s := tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 3))
	s.Base.Add(0, 40)
}

func TestDiffBasics(t *testing.T) {
	a := newExp(t, "p", 1, []string{"CYCLES"}, twoProcTree)
	b := newExp(t, "p", 1, []string{"CYCLES"}, func(tr *core.Tree) {
		f := tr.AddPath(fkey("main"), fkey("f"))
		f.Base.Add(0, 150) // f regressed by 50
		s := tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 3))
		s.Base.Add(0, 10)                        // g improved by 30
		h := tr.AddPath(fkey("main"), fkey("h")) // new scope
		h.Base.Add(0, 7)
	})
	res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeNone || res.PerRank {
		t.Fatalf("equal ranks resolved to mode=%v perRank=%v", res.Mode, res.PerRank)
	}
	mc := res.Metrics[0]
	if mc.Name != "CYCLES" || mc.Loss != nil {
		t.Fatalf("metrics = %+v", mc)
	}
	fn := res.Tree.FindPath("main", "f")
	if fn == nil {
		t.Fatal("union lost main>f")
	}
	if got := fn.Incl.Get(mc.Delta[0]); got != 50 {
		t.Fatalf("f delta = %v, want 50", got)
	}
	if got := fn.Incl.Get(mc.Ratio[0]); got != 1.5 {
		t.Fatalf("f ratio = %v, want 1.5", got)
	}
	gn := res.Tree.FindPath("main", "g")
	if got := gn.Incl.Get(mc.Delta[0]); got != -30 {
		t.Fatalf("g delta = %v, want -30", got)
	}
	hn := res.Tree.FindPath("main", "h")
	if hn == nil {
		t.Fatal("union lost B-only scope h")
	}
	if res.PresentIn(hn, 0) || !res.PresentIn(hn, 1) {
		t.Fatalf("h presence = (%v,%v), want (false,true)", res.PresentIn(hn, 0), res.PresentIn(hn, 1))
	}
	if got := hn.Incl.Get(res.Inputs[0].PresenceCol); got != 0 {
		t.Fatalf("in[A] at h = %v, want 0", got)
	}
	if got := hn.Incl.Get(res.Inputs[1].PresenceCol); got != 1 {
		t.Fatalf("in[B] at h = %v, want 1", got)
	}

	rep, err := res.Report(ReportOptions{Threshold: -1, Top: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 2 { // f (+50) and h (+7)
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	if rep.Regressions[0].Path[len(rep.Regressions[0].Path)-1] != "f" {
		t.Fatalf("top regression = %+v, want f", rep.Regressions[0])
	}
	if rep.Regressions[1].OnlyIn != "B" {
		t.Fatalf("h entry = %+v, want only-in B", rep.Regressions[1])
	}
	if len(rep.Improvements) != 1 || rep.Improvements[0].Path[len(rep.Improvements[0].Path)-1] != "g" {
		t.Fatalf("improvements = %+v, want g", rep.Improvements)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"differential profile: p", "regressions", "only in B", "f", "improvements"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, text.String())
		}
	}
}

func TestDiffNormalizationAndLoss(t *testing.T) {
	// 2 ranks vs 8 ranks: per-rank auto-normalization, weak auto-mode.
	a := newExp(t, "p", 2, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f")).Base.Add(0, 200) // 100/rank
	})
	b := newExp(t, "p", 8, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f")).Base.Add(0, 3200) // 400/rank
	})
	res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeWeak || !res.PerRank {
		t.Fatalf("resolved mode=%v perRank=%v, want weak per-rank", res.Mode, res.PerRank)
	}
	mc := res.Metrics[0]
	fn := res.Tree.FindPath("main", "f")
	if got := fn.Incl.Get(mc.In[0]); got != 100 {
		t.Fatalf("A per-rank cost = %v, want 100", got)
	}
	if got := fn.Incl.Get(mc.In[1]); got != 400 {
		t.Fatalf("B per-rank cost = %v, want 400", got)
	}
	if got := fn.Incl.Get(mc.Delta[0]); got != 300 {
		t.Fatalf("delta = %v, want 300", got)
	}
	// Weak scaling expects per-rank cost constant: loss = 1 - 100/400.
	if got := fn.Incl.Get(mc.Loss[0]); got != 0.75 {
		t.Fatalf("loss = %v, want 0.75", got)
	}

	// Strong scaling with per-rank costs: ideal per-rank cost shrinks by
	// ranks0/ranks1 = 1/4, so expected is 25 and loss = 1 - 25/400.
	res, err = Diff(Config{Mode: ModeStrong, Norm: NormPerRank}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	mc = res.Metrics[0]
	fn = res.Tree.FindPath("main", "f")
	if got := fn.Incl.Get(mc.Loss[0]); got != 1-25.0/400 {
		t.Fatalf("strong loss = %v, want %v", got, 1-25.0/400)
	}
}

// TestLossNonFiniteBase pins the loss column where the compared run's cost
// is not finite. The formula (1 - $a*f/$b) * ($b/$b) equals 1 - a*f/b for
// finite non-zero b and 0 for b = 0, but Inf/Inf is NaN, so an infinite b
// gives NaN where 1 - a*f/b would read 1.
func TestLossNonFiniteBase(t *testing.T) {
	a := newExp(t, "p", 2, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f")).Base.Add(0, 200)
		tr.AddPath(fkey("main"), fkey("g")).Base.Add(0, 200)
		tr.AddPath(fkey("main"), fkey("h")).Base.Add(0, 200)
	})
	b := newExp(t, "p", 8, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f")).Base.Add(0, math.Inf(1))
		tr.AddPath(fkey("main"), fkey("g")).Base.Add(0, 3200)
	})
	res, err := Diff(Config{Mode: ModeWeak, Norm: NormPerRank}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	loss := res.Metrics[0].Loss[0]
	if got := res.Tree.FindPath("main", "f").Excl.Get(loss); !math.IsNaN(got) {
		t.Errorf("loss where b is +Inf = %v, want NaN", got)
	}
	if got := res.Tree.FindPath("main", "g").Excl.Get(loss); got != 1-100.0/400 {
		t.Errorf("loss where b is finite = %v, want %v", got, 1-100.0/400)
	}
	if got := res.Tree.FindPath("main", "h").Excl.Get(loss); math.Float64bits(got) != 0 {
		t.Errorf("loss where b is 0 = %v, want +0", got)
	}
}

func TestDiffMetricResolution(t *testing.T) {
	a := newExp(t, "p", 1, []string{"CYCLES", "FLOPS"}, twoProcTree)
	b := newExp(t, "p", 1, []string{"CYCLES"}, twoProcTree)

	// Default metrics: the common subset, with a note for the skipped one.
	res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != 1 || res.Metrics[0].Name != "CYCLES" {
		t.Fatalf("metrics = %+v, want CYCLES only", res.Metrics)
	}
	found := false
	for _, n := range res.Exp.Notes {
		if strings.Contains(n, "FLOPS") && strings.Contains(n, "skipped") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no skip note for FLOPS in %v", res.Exp.Notes)
	}

	// An explicitly requested metric must exist everywhere.
	if _, err := Diff(Config{Metrics: []string{"FLOPS"}}, Input{Exp: a}, Input{Exp: b}); err == nil {
		t.Fatal("explicit missing metric did not error")
	}
	// No common metric at all.
	c := newExp(t, "p", 1, []string{"INSTR"}, twoProcTree)
	if _, err := Diff(Config{}, Input{Exp: a}, Input{Exp: c}); err == nil {
		t.Fatal("disjoint metric sets did not error")
	}
}

func TestDiffInputValidation(t *testing.T) {
	a := newExp(t, "p", 1, []string{"CYCLES"}, twoProcTree)
	if _, err := Diff(Config{}, Input{Exp: a}); err == nil {
		t.Fatal("single input did not error")
	}
	if _, err := Diff(Config{}, Input{Exp: a}, Input{Exp: nil}); err == nil {
		t.Fatal("nil input did not error")
	}
	if _, err := Diff(Config{}, Input{Label: "x y", Exp: a}, Input{Exp: a}); err == nil {
		t.Fatal("label with space did not error")
	}
	if _, err := Diff(Config{}, Input{Label: "x", Exp: a}, Input{Label: "x", Exp: a}); err == nil {
		t.Fatal("duplicate label did not error")
	}
	ins := make([]Input, MaxInputs+1)
	for i := range ins {
		ins[i].Exp = a
	}
	if _, err := Diff(Config{}, ins...); err == nil {
		t.Fatal("too many inputs did not error")
	}
}

func TestDiffProvenanceNotes(t *testing.T) {
	a := newExp(t, "p", 2, []string{"CYCLES"}, twoProcTree)
	b := newExp(t, "p", 2, []string{"CYCLES"}, twoProcTree)
	b.Provenance = &ingest.Report{Attempted: 3, Merged: 2,
		Bad: []ingest.BadRank{{Rank: 1, Class: ingest.ClassTruncated, Message: "short read"}}}
	b.Notes = append(b.Notes, "overrides section dropped")
	res, err := Diff(Config{}, Input{Label: "clean", Exp: a}, Input{Label: "dirty", Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Exp.Notes, "\n")
	if !strings.Contains(joined, "input dirty is quarantined") {
		t.Fatalf("no quarantine note: %q", joined)
	}
	if !strings.Contains(joined, "2 merged ranks") {
		t.Fatalf("no merged-rank count in note: %q", joined)
	}
	if !strings.Contains(joined, "input dirty: overrides section dropped") {
		t.Fatalf("input notes not propagated: %q", joined)
	}
	// A clean pair produces no notes at all.
	res, err = Diff(Config{}, Input{Exp: a}, Input{Label: "also-clean", Exp: a})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exp.Notes) != 0 {
		t.Fatalf("clean diff has notes: %v", res.Exp.Notes)
	}
}

// checkReopened writes a union through write and reads it back: every
// column keeps its name, unit, kind and formula, and every scope and cell
// is what oracle.CCT gives of the union as written, bit for bit.
func checkReopened(t *testing.T, res *Result, write func(*expdb.Experiment, io.Writer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := write(res.Exp, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := expdb.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tree.Reg.Len() != res.Tree.Reg.Len() {
		t.Fatalf("reloaded %d columns, want %d", got.Tree.Reg.Len(), res.Tree.Reg.Len())
	}
	for id, w := range res.Tree.Reg.Columns() {
		g := got.Tree.Reg.ByID(id)
		if g.Name != w.Name || g.Unit != w.Unit || g.Kind != w.Kind || g.Formula != w.Formula {
			t.Fatalf("column %d reloaded as %q %q %s %q, want %q %q %s %q", id,
				g.Name, g.Unit, g.Kind, g.Formula, w.Name, w.Unit, w.Kind, w.Formula)
		}
	}
	if err := oracle.CCT(res.Tree).Check([]*core.Node{got.Tree.Root}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestDiffRoundTrip serializes a diff result through both binary formats
// and checks every presented value survives bitwise.
func TestDiffRoundTrip(t *testing.T) {
	a := newExp(t, "p", 2, []string{"CYCLES"}, twoProcTree)
	b := newExp(t, "p", 8, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f")).Base.Add(0, 999)
		tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 3)).Base.Add(0, 1)
	})
	res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("v2", func(t *testing.T) { checkReopened(t, res, (*expdb.Experiment).WriteBinary) })
	t.Run("v1", func(t *testing.T) { checkReopened(t, res, (*expdb.Experiment).WriteBinaryV1) })
}

// TestDiffRoundTripKeepsFormulasAndUnits reopens a union with loss columns
// from every database format: each column keeps its name, unit, kind and
// formula, and every presented value survives bitwise.
func TestDiffRoundTripKeepsFormulasAndUnits(t *testing.T) {
	a := newExp(t, "p", 2, []string{"CYCLES", "FLOPS"}, twoProcTree)
	b := newExp(t, "p", 8, []string{"CYCLES", "FLOPS"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f")).Base.Add(0, 999)
		tr.AddPath(fkey("main"), fkey("g"), skey("g.c", 3)).Base.Add(1, 3)
		tr.AddPath(fkey("main"), fkey("h")).Base.Add(0, 5)
	})
	res, err := Diff(Config{Mode: ModeWeak, Norm: NormTotal}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	loss := res.Tree.Reg.ByID(res.Metrics[0].Loss[0])
	if loss.Kind != metric.Derived || loss.Unit != "frac" || loss.Formula != "(1 - $0*4/$1) * ($1/$1)" {
		t.Fatalf("loss column = %s %q %q", loss.Kind, loss.Unit, loss.Formula)
	}
	for _, f := range []struct {
		name  string
		write func(*expdb.Experiment, io.Writer) error
	}{
		{"v1", (*expdb.Experiment).WriteBinaryV1},
		{"v2", (*expdb.Experiment).WriteBinary},
		{"v3", (*expdb.Experiment).WriteBinaryV3},
		{"xml", (*expdb.Experiment).WriteXML},
	} {
		t.Run(f.name, func(t *testing.T) { checkReopened(t, res, f.write) })
	}
}

// TestReportTiesByLabels: entries of equal excess are ordered by their
// paths label by label, as hpcreport ranks scopes. main>f>g comes before
// main>f1 because "f" is a prefix of "f1"; joined into one string, the
// order would turn on '>' against '1' and put main>f1 first.
func TestReportTiesByLabels(t *testing.T) {
	a := newExp(t, "p", 1, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f"), fkey("g")).Base.Add(0, 10)
		tr.AddPath(fkey("main"), fkey("f1")).Base.Add(0, 10)
	})
	b := newExp(t, "p", 1, []string{"CYCLES"}, func(tr *core.Tree) {
		tr.AddPath(fkey("main"), fkey("f1")).Base.Add(0, 15)
		tr.AddPath(fkey("main"), fkey("f"), fkey("g")).Base.Add(0, 15)
	})
	res, err := Diff(Config{}, Input{Exp: a}, Input{Exp: b})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Report(ReportOptions{Threshold: -1, Top: -1})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range rep.Regressions {
		got = append(got, strings.Join(e.Path, ">"))
	}
	if want := []string{"main>f>g", "main>f1"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tied regressions in order %q, want %q", got, want)
	}
}
