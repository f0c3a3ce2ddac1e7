// Package report runs the paper's interactive analyses unattended,
// producing a deterministic machine-readable summary of one experiment
// database — the workflow of "Automated Programmatic Performance Analysis"
// applied to this reproduction's engine. A report bundles:
//
//   - hot path analysis per entry frame (Section V-C, Equation 3),
//   - the derived waste/efficiency metrics of Section VI-B, recovered
//     from cross-rank summary columns,
//   - the load-imbalance factor distribution of Section VI-C, from the
//     same columns,
//   - and, given a baseline database, the top regressions and
//     improvements via internal/diff.
//
// Build only reads its inputs (safe over shared refcounted snapshots) and
// its output depends only on the database bytes and the options — never
// on worker counts, map order or timestamps — so report bytes are stable
// across runs and suitable for golden tests and CI gating.
package report

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/expdb"
	"repro/internal/imbalance"
	"repro/internal/metric"
)

// Options shape a report.
type Options struct {
	// Metric names the primary raw metric for hot paths and regressions
	// (default: the first raw column).
	Metric string
	// Threshold is the hot-path descent threshold (Equation 3's t);
	// default core.DefaultHotPathThreshold.
	Threshold float64
	// Top bounds every ranked list (default 10).
	Top int
	// Bins sizes the imbalance histogram (default 10).
	Bins int
	// Baseline, when set, adds a regression analysis of the reported
	// database against it.
	Baseline *expdb.Experiment
}

// Metric describes one column of the database.
type Metric struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
	Kind string `json:"kind"`
}

// Step is one scope of a hot path.
type Step struct {
	Label string  `json:"label"`
	Kind  string  `json:"kind"`
	Incl  float64 `json:"incl"`
	// Fraction is this scope's share of the previous step's inclusive
	// cost (1 for the first step).
	Fraction float64 `json:"fraction"`
}

// HotPath is the Equation 3 descent from one entry frame.
type HotPath struct {
	Root   string  `json:"root"`
	Metric string  `json:"metric"`
	Total  float64 `json:"total"`
	Steps  []Step  `json:"steps"`
}

// ScopeStat is the load-imbalance summary of one frame, read from a
// merged database's cross-rank summary columns.
type ScopeStat struct {
	// Path is the labels of the frames from the entry frame to this one.
	Path []string `json:"path"`
	// Mean and Max are the frame's inclusive per-rank mean and maximum.
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	// Factor is max/mean − 1, the paper's imbalance factor: 0 for a
	// perfectly balanced frame, 1 when the slowest rank costs twice the
	// average.
	Factor float64 `json:"factor"`
	// Waste is ranks · (max − mean): the total cost the program would
	// shed if every rank ran at the mean — the paper's derived waste
	// metric, Section VI-B.
	Waste float64 `json:"waste"`
}

// WasteMetric is the Section VI-B derived waste/efficiency analysis of
// one raw metric, from its cross-rank summary columns.
type WasteMetric struct {
	Metric string `json:"metric"`
	// TotalMean/TotalMax are the program's per-rank mean and maximum
	// inclusive cost, the summary cells of the root; TotalWaste is
	// ranks·(max−mean); Efficiency is mean/max (1 = perfectly balanced).
	TotalMean  float64 `json:"total_mean"`
	TotalMax   float64 `json:"total_max"`
	TotalWaste float64 `json:"total_waste"`
	Efficiency float64 `json:"efficiency"`
	// TopScopes are the frames where rebalancing pays most, by waste.
	TopScopes []ScopeStat `json:"top_scopes,omitempty"`
}

// ImbalanceMetric is the Section VI-C load-imbalance distribution of one
// raw metric over significant frames (inclusive mean ≥ 1% of program
// mean).
type ImbalanceMetric struct {
	Metric     string          `json:"metric"`
	Frames     int             `json:"frames"`
	MeanFactor float64         `json:"mean_factor"`
	MaxFactor  float64         `json:"max_factor"`
	Histogram  []imbalance.Bin `json:"histogram,omitempty"`
	Worst      []ScopeStat     `json:"worst,omitempty"`
}

// Report is the complete unattended analysis of one database.
type Report struct {
	Program   string            `json:"program"`
	Ranks     int               `json:"ranks"`
	Scopes    int               `json:"scopes"`
	Metrics   []Metric          `json:"metrics"`
	HotPaths  []HotPath         `json:"hot_paths,omitempty"`
	Waste     []WasteMetric     `json:"waste,omitempty"`
	Imbalance []ImbalanceMetric `json:"imbalance,omitempty"`
	// Regressions compares against the baseline database (nil without
	// one).
	Regressions *diff.Report `json:"regressions,omitempty"`
	Notes       []string     `json:"notes,omitempty"`
}

// Build analyzes one database. The experiment is only read.
func Build(exp *expdb.Experiment, opt Options) (*Report, error) {
	if exp == nil || exp.Tree == nil {
		return nil, fmt.Errorf("report: no tree")
	}
	if opt.Threshold <= 0 {
		opt.Threshold = core.DefaultHotPathThreshold
	}
	if opt.Top == 0 {
		opt.Top = 10
	}
	if opt.Bins <= 0 {
		opt.Bins = 10
	}
	tree := exp.Tree
	r := &Report{
		Program: exp.Program,
		Ranks:   exp.NRanks,
		Scopes:  tree.NumNodes(),
		Notes:   exp.Notes,
	}
	for _, d := range tree.Reg.Columns() {
		r.Metrics = append(r.Metrics, Metric{Name: d.Name, Unit: d.Unit, Kind: d.Kind.String()})
	}

	primary, err := primaryMetric(tree.Reg, opt.Metric)
	if err != nil {
		return nil, err
	}
	for _, entry := range tree.Root.Children {
		r.HotPaths = append(r.HotPaths, hotPath(entry, primary, opt.Threshold))
	}

	summaries := false
	for _, d := range tree.Reg.Columns() {
		if d.Kind != metric.Raw {
			continue
		}
		meanID, maxID, ok := summaryCols(tree.Reg, d.ID)
		if !ok {
			continue
		}
		summaries = true
		// The program totals are the root's summary cells. Where the max is
		// zero, mean/max is undefined: the column recorded nothing, or the
		// database was merged before the root kept its summary cells.
		totalMean, totalMax := tree.Total(meanID), tree.Total(maxID)
		if totalMax == 0 {
			note := d.Name + ": recorded nothing, so mean/max is undefined: waste/imbalance analyses skipped"
			if tree.Total(d.ID) != 0 {
				note = d.Name + ": summary columns hold no program totals (merged before the root kept them): waste/imbalance analyses skipped (re-merge with hpcprof -summaries)"
			}
			r.Notes = append(r.Notes, note)
			continue
		}
		byWaste := ranked(frameStats(tree, exp.NRanks, meanID, maxID), func(s ScopeStat) float64 { return s.Waste })
		r.Waste = append(r.Waste, WasteMetric{
			Metric:     d.Name,
			TotalMean:  totalMean,
			TotalMax:   totalMax,
			TotalWaste: float64(exp.NRanks) * (totalMax - totalMean),
			Efficiency: totalMean / totalMax,
			TopScopes:  head(byWaste, opt.Top),
		})
		if im, ok := imbalanceMetric(d, totalMean, byWaste, opt); ok {
			r.Imbalance = append(r.Imbalance, im)
		}
	}
	if !summaries {
		r.Notes = append(r.Notes,
			"no cross-rank summary columns: waste/imbalance analyses skipped (merge with hpcprof -summaries)")
	}

	if opt.Baseline != nil {
		rep, err := regressions(exp, opt)
		if err != nil {
			return nil, err
		}
		r.Regressions = rep
	}
	return r, nil
}

// primaryMetric resolves the hot-path metric: the named raw column, or
// the first raw column.
func primaryMetric(reg *metric.Registry, name string) (*metric.Desc, error) {
	if name != "" {
		d := reg.ByName(name)
		if d == nil {
			return nil, fmt.Errorf("report: no metric %q", name)
		}
		return d, nil
	}
	for _, d := range reg.Columns() {
		if d.Kind == metric.Raw {
			return d, nil
		}
	}
	return nil, fmt.Errorf("report: database has no raw metric columns")
}

// hotPath runs Equation 3 from one entry frame.
func hotPath(entry *core.Node, d *metric.Desc, t float64) HotPath {
	hp := HotPath{
		Root:   entry.Label(),
		Metric: d.Name,
		Total:  entry.Incl.Get(d.ID),
	}
	prev := hp.Total
	for i, n := range core.HotPath(entry, d.ID, t) {
		incl := n.Incl.Get(d.ID)
		frac := 1.0
		if i > 0 && prev > 0 {
			frac = incl / prev
		}
		hp.Steps = append(hp.Steps, Step{
			Label:    n.Label(),
			Kind:     n.Kind.String(),
			Incl:     incl,
			Fraction: frac,
		})
		prev = incl
	}
	return hp
}

// summaryCols finds the mean and max summary columns over one raw column.
func summaryCols(reg *metric.Registry, src int) (meanID, maxID int, ok bool) {
	meanID, maxID = -1, -1
	for _, d := range reg.Columns() {
		if d.Kind != metric.Summary || d.Source != src {
			continue
		}
		switch d.Op {
		case metric.OpMean:
			meanID = d.ID
		case metric.OpMax:
			maxID = d.ID
		}
	}
	return meanID, maxID, meanID >= 0 && maxID >= 0
}

// frameStats scores every procedure frame with positive mean cost by
// imbalance factor and waste, in preorder. meanID and maxID are the
// summary columns over one raw metric; ranks is the merged rank count.
func frameStats(tree *core.Tree, ranks int, meanID, maxID int) []ScopeStat {
	var out []ScopeStat
	var path []string // frame labels from the entry frame down
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		depth := len(path)
		if n.Kind == core.KindFrame {
			path = append(path, n.Label())
			mean, max := n.Incl.Get(meanID), n.Incl.Get(maxID)
			if mean > 0 && max >= mean {
				out = append(out, ScopeStat{
					Path:   slices.Clone(path),
					Mean:   mean,
					Max:    max,
					Factor: max/mean - 1,
					Waste:  float64(ranks) * (max - mean),
				})
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:depth]
	}
	walk(tree.Root)
	return out
}

// ranked sorts scopes in place by descending key, ties broken by path,
// and returns them. Paths compare label by label: the order of the paths
// joined with NUL separators, unless a label holds a NUL byte.
func ranked(scopes []ScopeStat, key func(ScopeStat) float64) []ScopeStat {
	slices.SortStableFunc(scopes, func(a, b ScopeStat) int {
		if c := cmp.Compare(key(b), key(a)); c != 0 {
			return c
		}
		return slices.Compare(a.Path, b.Path)
	})
	return scopes
}

// head returns the first top scopes (all of them when top <= 0).
func head(scopes []ScopeStat, top int) []ScopeStat {
	if top > 0 && len(scopes) > top {
		return scopes[:top]
	}
	return scopes
}

// imbalanceMetric summarizes the imbalance-factor distribution over
// significant frames (mean ≥ 1% of the program mean). byWaste is the
// frames in descending waste order, which orders equal factors on equal
// paths among the worst.
func imbalanceMetric(d *metric.Desc, programMean float64, byWaste []ScopeStat, opt Options) (ImbalanceMetric, bool) {
	cut := 0.01 * programMean
	var sig []ScopeStat
	var factors []float64
	var stats metric.Stats
	for _, s := range byWaste {
		if s.Mean >= cut {
			sig = append(sig, s)
			factors = append(factors, s.Factor)
			stats.Observe(s.Factor)
		}
	}
	if len(sig) == 0 {
		return ImbalanceMetric{}, false
	}
	return ImbalanceMetric{
		Metric:     d.Name,
		Frames:     len(sig),
		MeanFactor: stats.Mean(),
		MaxFactor:  stats.Max,
		Histogram:  imbalance.Histogram(factors, opt.Bins),
		Worst:      head(ranked(sig, func(s ScopeStat) float64 { return s.Factor }), opt.Top),
	}, true
}

// regressions diffs the database against the baseline and reports the
// top movers of the primary metric.
func regressions(exp *expdb.Experiment, opt Options) (*diff.Report, error) {
	var metrics []string
	if opt.Metric != "" {
		metrics = []string{opt.Metric}
	}
	res, err := diff.Diff(diff.Config{Metrics: metrics},
		diff.Input{Label: "baseline", Exp: opt.Baseline},
		diff.Input{Label: "current", Exp: exp})
	if err != nil {
		return nil, fmt.Errorf("report: baseline diff: %w", err)
	}
	rep, err := res.Report(diff.ReportOptions{Metric: opt.Metric, Top: opt.Top})
	if err != nil {
		return nil, fmt.Errorf("report: baseline diff: %w", err)
	}
	return rep, nil
}

// JSON renders the report as stable indented JSON (struct field order,
// no maps, trailing newline).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
