package diff

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
)

// ReportOptions select what a Report ranks.
type ReportOptions struct {
	// Metric is the compared metric to report (default: the first).
	Metric string
	// Input is the label of the compared input (default: the last).
	Input string
	// Threshold is the minimum |excess| for a scope to appear, as a
	// fraction of the larger total (default 0.01; negative means 0).
	Threshold float64
	// Top bounds each list (default 10; negative means unlimited).
	Top int
}

// ReportEntry is one ranked scope. Values are normalized costs (per-rank
// averages when the diff normalized per rank).
type ReportEntry struct {
	// Path is the scope's call path from the entry point, as labels.
	Path []string `json:"path"`
	// Base and Value are the exclusive costs in the baseline and the
	// compared input.
	Base  float64 `json:"base"`
	Value float64 `json:"value"`
	// Delta is Value − Base; Excess is Value minus the ideal-scaling
	// prediction Base·f (equal to Delta when no scaling mode applies).
	Delta  float64 `json:"delta"`
	Excess float64 `json:"excess"`
	// Ratio is Value/Base (0 when Base is 0).
	Ratio float64 `json:"ratio"`
	// Loss is the scaling-loss fraction (omitted under ModeNone).
	Loss float64 `json:"loss,omitempty"`
	// OnlyIn names the input that has this scope when the other lacks
	// it — the explicit absent marker (empty when both have it).
	OnlyIn string `json:"only_in,omitempty"`
}

// Report ranks where one compared input regressed or improved against the
// baseline.
type Report struct {
	Program   string `json:"program"`
	Metric    string `json:"metric"`
	Unit      string `json:"unit,omitempty"`
	Mode      string `json:"mode"`
	PerRank   bool   `json:"per_rank"`
	BaseLabel string `json:"base_label"`
	Label     string `json:"label"`
	BaseRanks int    `json:"base_ranks"`
	Ranks     int    `json:"ranks"`
	// TotalBase/Total are the root inclusive costs; TotalExcess is the
	// root's cost beyond ideal scaling, TotalLoss its loss fraction.
	TotalBase   float64 `json:"total_base"`
	Total       float64 `json:"total"`
	TotalDelta  float64 `json:"total_delta"`
	TotalExcess float64 `json:"total_excess"`
	TotalLoss   float64 `json:"total_loss,omitempty"`
	// Threshold is the applied cutoff as an absolute cost.
	Threshold    float64       `json:"threshold"`
	Regressions  []ReportEntry `json:"regressions"`
	Improvements []ReportEntry `json:"improvements"`
	// Omitted counts entries above the cutoff dropped by Top.
	OmittedRegressions  int      `json:"omitted_regressions,omitempty"`
	OmittedImprovements int      `json:"omitted_improvements,omitempty"`
	Notes               []string `json:"notes,omitempty"`
}

// Report ranks the union's procedure frames by exclusive excess cost for
// one metric and one compared input.
func (r *Result) Report(opt ReportOptions) (*Report, error) {
	mi := 0
	if opt.Metric != "" {
		mi = -1
		for i := range r.Metrics {
			if r.Metrics[i].Name == opt.Metric {
				mi = i
				break
			}
		}
		if mi < 0 {
			return nil, fmt.Errorf("diff: metric %q was not compared", opt.Metric)
		}
	}
	ii := len(r.Inputs) - 1
	if opt.Input != "" {
		ii = -1
		for i := 1; i < len(r.Inputs); i++ {
			if r.Inputs[i].Label == opt.Input {
				ii = i
				break
			}
		}
		if ii < 1 {
			return nil, fmt.Errorf("diff: no compared input labeled %q", opt.Input)
		}
	}
	mc := &r.Metrics[mi]
	base, in := &r.Inputs[0], &r.Inputs[ii]
	f := in.Factor

	rep := &Report{
		Program:   r.Tree.Program,
		Metric:    mc.Name,
		Unit:      mc.Unit,
		Mode:      r.Mode.String(),
		PerRank:   r.PerRank,
		BaseLabel: base.Label,
		Label:     in.Label,
		BaseRanks: base.Ranks,
		Ranks:     in.Ranks,
		Notes:     r.Exp.Notes,
	}
	root := r.Tree.Root
	rep.TotalBase = root.Incl.Get(mc.In[0])
	rep.Total = root.Incl.Get(mc.In[ii])
	rep.TotalDelta = root.Incl.Get(mc.Delta[ii-1])
	rep.TotalExcess = rep.Total - rep.TotalBase*f
	if mc.Loss != nil {
		rep.TotalLoss = root.Incl.Get(mc.Loss[ii-1])
	}

	scale := rep.Total
	if s := rep.TotalBase * f; s > scale {
		scale = s
	}
	if s := -scale; s > scale {
		scale = s
	}
	th := opt.Threshold
	switch {
	case th == 0:
		th = 0.01
	case th < 0:
		th = 0
	}
	rep.Threshold = th * scale

	var entries []ReportEntry
	core.Walk(root, func(n *core.Node) bool {
		if n.Kind != core.KindFrame {
			return true
		}
		av := n.Excl.Get(mc.In[0])
		bv := n.Excl.Get(mc.In[ii])
		ex := bv - av*f
		if !(ex > rep.Threshold || -ex > rep.Threshold) {
			return true
		}
		e := ReportEntry{Base: av, Value: bv, Delta: n.Excl.Get(mc.Delta[ii-1]),
			Excess: ex, Ratio: n.Excl.Get(mc.Ratio[ii-1])}
		if mc.Loss != nil {
			e.Loss = n.Excl.Get(mc.Loss[ii-1])
		}
		for _, a := range n.Path() {
			e.Path = append(e.Path, a.Label())
		}
		inBase, inOther := r.PresentIn(n, 0), r.PresentIn(n, ii)
		switch {
		case inBase && !inOther:
			e.OnlyIn = base.Label
		case inOther && !inBase:
			e.OnlyIn = in.Label
		}
		entries = append(entries, e)
		return true
	})
	// Ties break by path, label by label, as hpcreport ranks scopes.
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Excess != entries[j].Excess {
			return entries[i].Excess > entries[j].Excess
		}
		return slices.Compare(entries[i].Path, entries[j].Path) < 0
	})
	top := opt.Top
	if top == 0 {
		top = 10
	}
	for _, e := range entries {
		if e.Excess > 0 {
			rep.Regressions = append(rep.Regressions, e)
		}
	}
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Excess < 0 {
			rep.Improvements = append(rep.Improvements, entries[i])
		}
	}
	if top > 0 {
		if n := len(rep.Regressions); n > top {
			rep.Regressions = rep.Regressions[:top]
			rep.OmittedRegressions = n - top
		}
		if n := len(rep.Improvements); n > top {
			rep.Improvements = rep.Improvements[:top]
			rep.OmittedImprovements = n - top
		}
	}
	return rep, nil
}

// fmtV formats a cost for the text report: compact, never blank.
func fmtV(v float64) string { return fmt.Sprintf("%.4g", v) }

// WriteText renders the report as the hpcdiff CLI prints it.
func (rep *Report) WriteText(w io.Writer) error {
	norm := "total costs"
	if rep.PerRank {
		norm = "per-rank costs"
	}
	fmt.Fprintf(w, "differential profile: %s\n", rep.Program)
	fmt.Fprintf(w, "metric %s", rep.Metric)
	if rep.Unit != "" {
		fmt.Fprintf(w, " (%s)", rep.Unit)
	}
	fmt.Fprintf(w, ", mode %s, %s\n", rep.Mode, norm)
	fmt.Fprintf(w, "inputs: %s (%d ranks) -> %s (%d ranks)\n",
		rep.BaseLabel, rep.BaseRanks, rep.Label, rep.Ranks)
	fmt.Fprintf(w, "totals: %s=%s %s=%s delta=%s excess=%s",
		rep.BaseLabel, fmtV(rep.TotalBase), rep.Label, fmtV(rep.Total),
		fmtV(rep.TotalDelta), fmtV(rep.TotalExcess))
	if rep.Mode != "none" {
		fmt.Fprintf(w, " loss=%s", fmtV(rep.TotalLoss))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "threshold: |excess| > %s\n", fmtV(rep.Threshold))
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}

	section := func(title string, entries []ReportEntry, omitted int) {
		fmt.Fprintf(w, "\n%s:\n", title)
		if len(entries) == 0 {
			fmt.Fprintln(w, "  (none)")
			return
		}
		for _, e := range entries {
			proc := "?"
			if len(e.Path) > 0 {
				proc = e.Path[len(e.Path)-1]
			}
			fmt.Fprintf(w, "  excess=%-10s %s=%-10s %s=%-10s ratio=%-8s",
				fmtV(e.Excess), rep.BaseLabel, fmtV(e.Base), rep.Label, fmtV(e.Value), fmtV(e.Ratio))
			if rep.Mode != "none" {
				fmt.Fprintf(w, " loss=%-8s", fmtV(e.Loss))
			}
			fmt.Fprintf(w, " %s", proc)
			if e.OnlyIn != "" {
				fmt.Fprintf(w, " [only in %s]", e.OnlyIn)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "      at %s\n", strings.Join(e.Path, " > "))
		}
		if omitted > 0 {
			fmt.Fprintf(w, "  ... and %d more above the threshold\n", omitted)
		}
	}
	section(fmt.Sprintf("regressions (%s costs more than scaled %s)", rep.Label, rep.BaseLabel),
		rep.Regressions, rep.OmittedRegressions)
	section(fmt.Sprintf("improvements (%s costs less than scaled %s)", rep.Label, rep.BaseLabel),
		rep.Improvements, rep.OmittedImprovements)
	return nil
}
