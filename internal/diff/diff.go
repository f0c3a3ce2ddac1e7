// Package diff implements differential profiling: the structural union of
// two or more experiment databases into one calling context tree whose
// metric store carries, for every compared cost metric, per-input columns
// plus delta, ratio and scaling-loss columns. The comparison columns are
// derived metrics (Section V-D): formulas over the per-input columns that
// the union's store evaluates like any other, a column on its first read,
// so every existing view (top-down, callers, flat), sort, hot path and
// threshold renders a diff with zero view-layer changes, a report pays
// only for the columns it reads, and a saved union stores formulas instead
// of values.
//
// Scopes are matched structurally by their full core.Key at every level
// (frame symbol + structure scope + disambiguating ID), the same identity
// the canonical CCT fuses samples by. A scope present in only some inputs
// keeps its rows: absence is recorded in explicit per-input presence
// columns ("in[A]" is 1 where input A has the scope), never conflated
// with a zero cost.
//
// The scaling-loss column generalizes Section VI-A's scaled differencing
// (after Coarfa et al.): with expected cost e(s) = a(s)·f — the baseline
// cost scaled by the ideal weak- or strong-scaling factor f — the loss at
// scope s is
//
//	loss(s) = 1 − e(s)/b(s)
//
// the complement of parallel efficiency: for a weak-scaling pair at N and
// N/k ranks (total costs), 1 − k·T_{N/k}/T_N. It is positive where the
// run at scale spends more than ideal scaling predicts, negative where it
// beats the prediction, and 0 where the compared run has no cost.
//
// Determinism: the union is built single-threaded in first-appearance
// order and every formula reads one plane of its own row, so a diff result
// — including its serialized form — is byte-identical at any GOMAXPROCS.
package diff

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
)

// MaxInputs bounds how many experiments one diff can union (presence is a
// per-row bitmask).
const MaxInputs = 8

// Mode selects the scaling expectation applied to the baseline.
type Mode uint8

const (
	// ModeAuto picks ModeNone when every input has the same rank count
	// and ModeWeak otherwise.
	ModeAuto Mode = iota
	// ModeNone compares costs directly (no loss columns).
	ModeNone
	// ModeWeak expects per-rank cost to stay constant as ranks grow.
	ModeWeak
	// ModeStrong expects total cost to stay constant as ranks grow.
	ModeStrong
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeNone:
		return "none"
	case ModeWeak:
		return "weak"
	case ModeStrong:
		return "strong"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode parses a mode name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto":
		return ModeAuto, nil
	case "none":
		return ModeNone, nil
	case "weak":
		return ModeWeak, nil
	case "strong":
		return ModeStrong, nil
	}
	return ModeAuto, fmt.Errorf("diff: unknown mode %q (want auto, none, weak or strong)", s)
}

// Norm selects how input costs are normalized before comparison.
type Norm uint8

const (
	// NormAuto normalizes to per-rank averages exactly when the inputs
	// have different rank counts.
	NormAuto Norm = iota
	// NormPerRank divides each input's costs by its rank count.
	NormPerRank
	// NormTotal compares rank-summed totals as stored.
	NormTotal
)

// Input is one experiment to diff. The label names the input's columns
// ("CYCLES[base]" for label "base"); it must be addressable by the engine
// command grammar, so it may not contain spaces or commas.
type Input struct {
	Label string
	Exp   *expdb.Experiment
}

// Config controls a diff.
type Config struct {
	// Metrics are the cost columns to compare. Empty means every raw
	// metric of the baseline that every input shares (by name); metrics
	// named explicitly must be raw columns of every input.
	Metrics []string
	// Mode selects the scaling expectation (default ModeAuto).
	Mode Mode
	// Norm selects the cost normalization (default NormAuto).
	Norm Norm
	// Jobs is ignored.
	//
	// Deprecated: the comparison columns are derived formulas, each
	// evaluated by the union's store on its first read; a diff starts no
	// goroutine.
	Jobs int
}

// InputInfo describes one input's place in the union.
type InputInfo struct {
	// Label is the input's column label.
	Label string
	// Ranks is the input's merged rank count (at least 1).
	Ranks int
	// Norm is the factor applied to the input's stored costs (1, or
	// 1/Ranks under per-rank normalization).
	Norm float64
	// Factor is the ideal-scaling multiplier applied to the baseline's
	// normalized cost to predict this input's (1 for the baseline).
	Factor float64
	// PresenceCol is the column holding 1 at scopes this input has.
	PresenceCol int
}

// MetricCols maps one compared metric to its columns in the union
// registry. Delta/Ratio/Loss are derived columns indexed by input minus
// one (entry 0 compares input 1 against the baseline input 0); Loss is nil
// under ModeNone.
type MetricCols struct {
	// Name is the source metric name, e.g. "CYCLES".
	Name string
	// Unit is the source metric unit.
	Unit string
	// In holds the per-input cost columns, e.g. CYCLES[A], CYCLES[B].
	In []int
	// Delta holds b−a difference columns, e.g. CYCLES[B-A].
	Delta []int
	// Ratio holds b/a ratio columns, e.g. CYCLES[B/A].
	Ratio []int
	// Loss holds scaling-loss columns 1 − a·f/b, e.g. CYCLES[loss(B)].
	Loss []int
}

// Result is a completed diff: a fresh experiment whose tree is the
// structural union of the inputs, plus the column map.
type Result struct {
	// Exp wraps the union tree as an experiment (serializable with
	// WriteBinary/WriteXML like any other database).
	Exp *expdb.Experiment
	// Tree is the union calling context tree.
	Tree *core.Tree
	// Inputs describes the inputs in argument order.
	Inputs []InputInfo
	// Metrics maps each compared metric to its columns.
	Metrics []MetricCols
	// Mode is the resolved scaling expectation (never ModeAuto).
	Mode Mode
	// PerRank reports whether costs were normalized to per-rank averages.
	PerRank bool

	// present is the per-row input bitmask backing the presence columns.
	present []uint8
}

// labelOK reports whether a label survives the engine command grammar:
// command lines split on whitespace and column lists split on commas.
func labelOK(l string) bool {
	return l != "" && !strings.ContainsAny(l, " \t,")
}

// defaultLabels are the labels used when an input does not name itself.
var defaultLabels = [MaxInputs]string{"A", "B", "C", "D", "E", "F", "G", "H"}

// Diff unions the inputs into a fresh experiment. The first input is the
// baseline every other input is compared against. Input trees are only
// read, so they may be shared with live sessions.
func Diff(cfg Config, inputs ...Input) (*Result, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("diff: need at least 2 inputs, got %d", len(inputs))
	}
	if len(inputs) > MaxInputs {
		return nil, fmt.Errorf("diff: at most %d inputs, got %d", MaxInputs, len(inputs))
	}
	labels := make([]string, len(inputs))
	seen := map[string]bool{}
	for i, in := range inputs {
		if in.Exp == nil || in.Exp.Tree == nil {
			return nil, fmt.Errorf("diff: input %d has no tree", i)
		}
		l := in.Label
		if l == "" {
			l = defaultLabels[i]
		}
		if !labelOK(l) {
			return nil, fmt.Errorf("diff: label %q contains a space or comma", l)
		}
		if seen[l] {
			return nil, fmt.Errorf("diff: duplicate label %q", l)
		}
		seen[l] = true
		labels[i] = l
	}

	ranks := make([]int, len(inputs))
	sameRanks := true
	for i, in := range inputs {
		ranks[i] = in.Exp.NRanks
		if ranks[i] < 1 {
			ranks[i] = 1
		}
		if ranks[i] != ranks[0] {
			sameRanks = false
		}
	}
	mode := cfg.Mode
	if mode == ModeAuto {
		if sameRanks {
			mode = ModeNone
		} else {
			mode = ModeWeak
		}
	}
	perRank := false
	switch cfg.Norm {
	case NormAuto:
		perRank = !sameRanks
	case NormPerRank:
		perRank = true
	}

	var notes []string
	metrics, mnotes, err := resolveMetrics(cfg.Metrics, inputs, labels)
	if err != nil {
		return nil, err
	}
	notes = append(notes, mnotes...)

	// Build the union registry, interleaved per metric: the per-input cost
	// columns (the only ones with base values), then that metric's
	// comparison formulas; the presence columns last.
	reg := metric.NewRegistry()
	r := &Result{Mode: mode, PerRank: perRank}
	for i := range inputs {
		info := InputInfo{Label: labels[i], Ranks: ranks[i], Norm: 1, Factor: 1}
		if perRank {
			info.Norm = 1 / float64(ranks[i])
		}
		switch mode {
		case ModeWeak:
			if !perRank {
				info.Factor = float64(ranks[i]) / float64(ranks[0])
			}
		case ModeStrong:
			if perRank {
				info.Factor = float64(ranks[0]) / float64(ranks[i])
			}
		}
		r.Inputs = append(r.Inputs, info)
	}
	for _, rm := range metrics {
		mc := MetricCols{Name: rm.name, Unit: rm.unit}
		for i := range inputs {
			d, err := reg.AddRaw(fmt.Sprintf("%s[%s]", rm.name, labels[i]), rm.unit, rm.period)
			if err != nil {
				return nil, err
			}
			mc.In = append(mc.In, d.ID)
		}
		a := mc.In[0]
		for i := 1; i < len(inputs); i++ {
			b := mc.In[i]
			d, err := addFormula(reg, fmt.Sprintf("%s[%s-%s]", rm.name, labels[i], labels[0]), rm.unit,
				fmt.Sprintf("$%d - $%d", b, a))
			if err != nil {
				return nil, err
			}
			mc.Delta = append(mc.Delta, d)
			q, err := addFormula(reg, fmt.Sprintf("%s[%s/%s]", rm.name, labels[i], labels[0]), "x",
				fmt.Sprintf("$%d / $%d", b, a))
			if err != nil {
				return nil, err
			}
			mc.Ratio = append(mc.Ratio, q)
			if mode != ModeNone {
				// For finite $b the factor $b/$b is exactly 1, or 0
				// where $b is (x/0 is 0): no loss is charged where the
				// compared run has no cost. An infinite $b makes it NaN.
				f := strconv.FormatFloat(r.Inputs[i].Factor, 'g', -1, 64)
				ls, err := addFormula(reg, fmt.Sprintf("%s[loss(%s)]", rm.name, labels[i]), "frac",
					fmt.Sprintf("(1 - $%d*%s/$%d) * ($%d/$%d)", a, f, b, b, b))
				if err != nil {
					return nil, err
				}
				mc.Loss = append(mc.Loss, ls)
			}
		}
		r.Metrics = append(r.Metrics, mc)
	}
	for i := range r.Inputs {
		d, err := reg.AddComputed(fmt.Sprintf("in[%s]", labels[i]), "")
		if err != nil {
			return nil, err
		}
		r.Inputs[i].PresenceCol = d.ID
	}

	// Provenance: a diff of a quarantined (-keep-going) database must say
	// so — the comparison silently covers only the merged ranks otherwise.
	for i, in := range inputs {
		if rep := in.Exp.Provenance; rep != nil && !rep.Clean() {
			notes = append(notes, fmt.Sprintf(
				"diff: input %s is quarantined (%s); its costs cover the %d merged ranks only",
				labels[i], rep.Summary(), r.Inputs[i].Ranks))
		}
		for _, n := range in.Exp.Notes {
			notes = append(notes, fmt.Sprintf("diff: input %s: %s", labels[i], n))
		}
	}

	out := core.NewTree(diffProgram(inputs), reg)
	r.present = unionTrees(out, inputs, r)
	// Nothing below references an input tree: the walk's slot stack and
	// source rows died with unionTrees, and inputs is not read again. The
	// collector may therefore reclaim the inputs (trees and read buffers)
	// while fillPresence allocates the presence planes, unless the caller
	// still holds them. A later use of inputs would keep them live through
	// the peak. The per-input columns are complete: the gather copied all
	// three planes, so Equations 1-2 do not run over the union. The
	// comparison columns allocate nothing here: each is evaluated when
	// first read.
	r.fillPresence(out.MetricStore())
	r.Tree = out

	nranks := 1
	if !perRank && sameRanks {
		nranks = ranks[0]
	}
	r.Exp = &expdb.Experiment{Program: out.Program, NRanks: nranks, Tree: out, Notes: notes}
	return r, nil
}

// addFormula registers a derived comparison column with its unit.
func addFormula(reg *metric.Registry, name, unit, formula string) (int, error) {
	d, err := reg.AddDerived(name, formula)
	if err != nil {
		return 0, err
	}
	d.Unit = unit
	return d.ID, nil
}

// resolvedMetric is one metric chosen for comparison.
type resolvedMetric struct {
	name   string
	unit   string
	period uint64
}

// resolveMetrics picks the compared metrics: the explicit list (each must
// be a raw column of every input) or the baseline's raw columns that every
// input shares, skipped ones noted.
func resolveMetrics(want []string, inputs []Input, labels []string) ([]resolvedMetric, []string, error) {
	var notes []string
	check := func(name string) (missing string, notRaw string) {
		for i, in := range inputs {
			d := in.Exp.Tree.Reg.ByName(name)
			if d == nil {
				return labels[i], ""
			}
			if d.Kind != metric.Raw {
				return "", fmt.Sprintf("%s in input %s", d.Kind, labels[i])
			}
		}
		return "", ""
	}
	var out []resolvedMetric
	add := func(name string) {
		d := inputs[0].Exp.Tree.Reg.ByName(name)
		out = append(out, resolvedMetric{name: name, unit: d.Unit, period: d.Period})
	}
	if len(want) > 0 {
		for _, name := range want {
			missing, notRaw := check(name)
			if missing != "" {
				return nil, nil, fmt.Errorf("diff: metric %q missing from input %s", name, missing)
			}
			if notRaw != "" {
				return nil, nil, fmt.Errorf("diff: metric %q is %s, not raw (only sampled cost columns diff)", name, notRaw)
			}
			add(name)
		}
		return out, notes, nil
	}
	for _, d := range inputs[0].Exp.Tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		missing, notRaw := check(d.Name)
		if missing != "" {
			notes = append(notes, fmt.Sprintf("diff: metric %q missing from input %s; skipped", d.Name, missing))
			continue
		}
		if notRaw != "" {
			notes = append(notes, fmt.Sprintf("diff: metric %q is %s; skipped", d.Name, notRaw))
			continue
		}
		add(d.Name)
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("diff: no raw metric common to all inputs")
	}
	return out, notes, nil
}

// diffProgram names the union: the shared program name, or the names
// joined when the inputs measured different programs.
func diffProgram(inputs []Input) string {
	name := inputs[0].Exp.Program
	for _, in := range inputs[1:] {
		if in.Exp.Program != name {
			parts := make([]string, len(inputs))
			for i := range inputs {
				parts[i] = inputs[i].Exp.Program
			}
			return strings.Join(parts, " vs ")
		}
	}
	return name
}

func allBits(n int) uint8 { return uint8(1<<uint(n)) - 1 }

// unionTrees builds the structural union of the inputs' trees under
// out.Root and fills the per-input cost columns, returning the per-row
// presence bitmask. Scopes match on the full key; children keep
// first-appearance order across the inputs, so the union of identically
// shaped trees has the inputs' own child order.
//
// The per-input columns are gathered, all three planes, from the input's
// own: a union row holds at most one scope of each input (keys match at
// every level and the readers refuse duplicate siblings), so the union
// restricted to input L is L's own tree, and Equations 1-2 over it give
// L's presented cells. Each cell is that value times L's normalization,
// rounded once.
func unionTrees(out *core.Tree, inputs []Input, r *Result) []uint8 {
	k := len(inputs)
	maxRows, sumRows := 0, 0
	for _, in := range inputs {
		n := in.Exp.Tree.MetricStore().NumRows()
		maxRows, sumRows = max(maxRows, n), sumRows+n
	}
	out.Reserve(maxRows)
	b := unionBuilder{k: k, idx: map[core.Key]int{}, src: make([][]int32, k)}
	b.present = append(make([]uint8, 0, sumRows), allBits(k))
	for i, in := range inputs {
		b.src[i] = append(make([]int32, 0, sumRows), in.Exp.Tree.Root.Base.Row())
		b.slots = append(b.slots, in.Exp.Tree.Root)
	}
	b.union(out.Root, 0)

	// Gather: per input, compared metric and plane, one pass over the
	// input's source rows fills an exact-length slab the union owns (an
	// input may be a mapped file). Adding +0 turns a -0 product into +0:
	// the store holds no negative zero.
	st := out.MetricStore()
	for i, in := range inputs {
		t, norm := in.Exp.Tree, r.Inputs[i].Norm
		for _, mc := range r.Metrics {
			id := t.Reg.ByName(mc.Name).ID
			for _, p := range [...]metric.Plane{metric.PlaneBase, metric.PlaneIncl, metric.PlaneExcl} {
				from := t.MetricStore().ColRead(p, id)
				slab := make([]float64, st.NumRows())
				for row, s := range b.src[i] {
					if uint(s) < uint(len(from)) {
						slab[row] = from[s]*norm + 0
					}
				}
				if p == metric.PlaneBase {
					slab[0] = 0 // the union root carries no base
				}
				st.AdoptCol(p, mc.In[i], slab, false)
			}
		}
	}
	return b.present
}

// unionBuilder carries the state of the recursive simultaneous walk. The
// union's rows are created in preorder, so present and src are indexed by
// union row.
type unionBuilder struct {
	k int
	// slots is the walk's stack: per scope being merged, one slot per
	// distinct child key, k input instances each (nil where absent).
	slots []*core.Node
	// idx maps a child key to its slot when the inputs' child sequences
	// differ; cleared per scope.
	idx map[core.Key]int
	// present is the per-row input bitmask; src[i] is input i's source row
	// for each union row (-1 where the input lacks the scope).
	present []uint8
	src     [][]int32
}

// union merges the children of the input instances in slots[at:at+k] under
// out. Child order is first appearance scanning the inputs in argument
// order — for inputs of identical shape, their own order.
func (b *unionBuilder) union(out *core.Node, at int) {
	var ins [MaxInputs]*core.Node // a copy: the appends below may move the stack
	copy(ins[:], b.slots[at:at+b.k])
	base := len(b.slots)
	if ref := ins[firstPresent(ins[:b.k])]; sameShape(ins[:b.k], ref) {
		// Fast path: every present input has ref's child key sequence
		// (self-diffs, runs of one binary), so slot j is child j.
		for j := range ref.Children {
			for _, in := range ins[:b.k] {
				var c *core.Node
				if in != nil {
					c = in.Children[j]
				}
				b.slots = append(b.slots, c)
			}
		}
	} else {
		if len(b.idx) > 64 {
			b.idx = map[core.Key]int{} // clearing costs a map's capacity, not its length
		} else {
			clear(b.idx)
		}
		for i, in := range ins[:b.k] {
			if in == nil {
				continue
			}
			for _, c := range in.Children {
				j, ok := b.idx[c.Key]
				if !ok {
					j = len(b.slots)
					b.idx[c.Key] = j
					b.slots = append(b.slots, make([]*core.Node, b.k)...)
				}
				b.slots[j+i] = c
			}
		}
	}
	// Slot keys are unique, so children are appended without lookups.
	out.GrowChildren((len(b.slots) - base) / b.k)
	for s := base; s < len(b.slots); s += b.k {
		var bits uint8
		var first *core.Node
		for i, in := range b.slots[s : s+b.k] {
			row := int32(-1)
			if in != nil {
				bits |= 1 << uint(i)
				if first == nil {
					first = in
				}
				row = in.Base.Row()
			}
			b.src[i] = append(b.src[i], row)
		}
		c := out.AppendChild(first.Key)
		c.NoSource = first.NoSource
		c.Mod = first.Mod
		c.CallLine = first.CallLine
		c.CallFile = first.CallFile
		b.present = append(b.present, bits)
		b.union(c, s)
	}
	b.slots = b.slots[:base]
}

// firstPresent returns the index of the first non-nil input instance.
func firstPresent(ins []*core.Node) int {
	for i, in := range ins {
		if in != nil {
			return i
		}
	}
	return -1
}

// sameShape reports whether every present input instance has exactly
// ref's child key sequence.
func sameShape(ins []*core.Node, ref *core.Node) bool {
	for _, in := range ins {
		if in == nil || in == ref {
			continue
		}
		if len(in.Children) != len(ref.Children) {
			return false
		}
		for k, c := range ref.Children {
			if in.Children[k].Key != c.Key {
				return false
			}
		}
	}
	return true
}

// Recompute does nothing: Diff gathers every plane of the per-input
// columns from the inputs' own and writes the presence columns once, and
// the comparison columns are formulas evaluated when read.
//
// Deprecated: kept for the end-to-end benchmark's probe; nothing needs it.
func (r *Result) Recompute() {}

// fillPresence writes the presence columns from the per-row bitmask: 1 in
// both presented planes wherever the input has the scope.
func (r *Result) fillPresence(st *metric.Store) {
	for i := range r.Inputs {
		col := r.Inputs[i].PresenceCol
		incl := st.Col(metric.PlaneIncl, col)
		excl := st.Col(metric.PlaneExcl, col)
		bit := uint8(1) << uint(i)
		for row, bits := range r.present {
			if bits&bit != 0 {
				incl[row], excl[row] = 1, 1
			}
		}
	}
}

// PresentIn reports whether union scope n exists in input i.
func (r *Result) PresentIn(n *core.Node, i int) bool {
	row := int(n.Base.Row())
	return row < len(r.present) && r.present[row]&(1<<uint(i)) != 0
}
