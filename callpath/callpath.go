// Package callpath is the public API of the toolkit: a Go reproduction of
// the call-path-profile presentation system described in Adhianto,
// Mellor-Crummey & Tallent, "Effectively Presenting Call Path Profiles of
// Application Performance" (ICPP 2010) — the hpcviewer paper — together
// with the full measurement pipeline it sits on (sampling, structure
// recovery, correlation, multi-rank merging).
//
// Typical use:
//
//	res, err := callpath.Run(callpath.RunConfig{Workload: "s3d"})
//	tree := res.Experiment.Tree
//	path := callpath.HotPath(tree.Root, 0, 0.5)         // Equation 3
//	cv := callpath.BuildCallersView(tree)               // bottom-up view
//	fv := callpath.BuildFlatView(tree)                  // static view
//	callpath.RenderTree(os.Stdout, tree, callpath.RenderOptions{})
//
// The three views, the inclusive/exclusive attribution rules, hot-path
// analysis, derived metrics ($n formulas), flattening and the summary
// statistics for large parallel runs all follow the paper; see DESIGN.md
// for the per-section mapping and EXPERIMENTS.md for reproduced figures.
package callpath

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/imbalance"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/render"
	"repro/internal/sampler"
	"repro/internal/scaling"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// Core presentation types.
type (
	// Tree is a canonical calling context tree with metrics.
	Tree = core.Tree
	// Node is one scope in a tree or view.
	Node = core.Node
	// Key identifies a scope within its parent.
	Key = core.Key
	// Kind classifies scopes.
	Kind = core.Kind
	// CallersView is the bottom-up view (lazily constructed).
	CallersView = core.CallersView
	// FlatView is the static-structure view.
	FlatView = core.FlatView
	// SortSpec selects the metric column and flavor to sort scopes by.
	SortSpec = core.SortSpec
	// Experiment is a serializable performance database.
	Experiment = expdb.Experiment
	// RenderOptions controls the tree-tabular renderer.
	RenderOptions = render.Options
	// RenderColumn selects one metric column/flavor for rendering.
	RenderColumn = render.Column
	// MetricRegistry is the column table of a tree.
	MetricRegistry = metric.Registry
	// SummaryOp selects a summary statistic (mean/min/max/stddev).
	SummaryOp = metric.SummaryOp
	// ImbalanceReport is a per-rank load-imbalance analysis.
	ImbalanceReport = imbalance.Report
	// Program is a synthetic application (for custom workloads).
	Program = prog.Program
)

// Scope kinds.
const (
	KindRoot     = core.KindRoot
	KindFrame    = core.KindFrame
	KindLoop     = core.KindLoop
	KindAlien    = core.KindAlien
	KindStmt     = core.KindStmt
	KindLM       = core.KindLM
	KindFile     = core.KindFile
	KindProc     = core.KindProc
	KindCallSite = core.KindCallSite
)

// Summary operators.
const (
	OpSum    = metric.OpSum
	OpMean   = metric.OpMean
	OpMin    = metric.OpMin
	OpMax    = metric.OpMax
	OpStdDev = metric.OpStdDev
)

// DefaultHotPathThreshold is the paper's t = 50%.
const DefaultHotPathThreshold = core.DefaultHotPathThreshold

// View construction and analysis (Sections III–V of the paper).
var (
	// BuildCallersView creates the bottom-up view with lazily expanded
	// caller chains.
	BuildCallersView = core.BuildCallersView
	// BuildFlatView creates the static view.
	BuildFlatView = core.BuildFlatView
	// HotPath expands the hot path (Equation 3) from a scope.
	HotPath = core.HotPath
	// Flatten elides one layer of hierarchy (Section III-C).
	Flatten = core.Flatten
	// FlattenN applies Flatten n times.
	FlattenN = core.FlattenN
	// SortScopes orders a sibling list by a metric column.
	SortScopes = core.SortScopes
	// SortTree sorts every sibling list of a subtree.
	SortTree = core.SortTree
	// ApplyDerived evaluates derived metric columns over a subtree.
	ApplyDerived = core.ApplyDerived
	// Walk visits a subtree in preorder.
	Walk = core.Walk
	// Fig1Tree builds the paper's Figure 1/2 worked example.
	Fig1Tree = core.Fig1Tree

	// RenderTree / RenderCallers / RenderFlat write a view as a
	// tree-table (the hpcviewer presentation, Section V).
	RenderTree    = render.RenderTree
	RenderCallers = render.RenderCallers
	RenderFlat    = render.RenderFlat
)

// Workloads lists the built-in synthetic applications.
func Workloads() []string { return workloads.Names() }

// RunConfig configures an end-to-end measurement run.
type RunConfig struct {
	// Workload names a built-in workload (see Workloads()).
	Workload string
	// Ranks overrides the workload's default SPMD width (0 = default).
	Ranks int
	// Threads runs each rank as this many threads, one profile per
	// (rank, thread) pair (0 or 1 = single-threaded).
	Threads int
	// Period overrides the base sampling period in cycles (0 = default).
	Period uint64
	// Seed varies the execution deterministically.
	Seed int64
	// Params override workload parameters.
	Params map[string]int64
	// Summaries adds mean/min/max/stddev columns over ranks for every
	// raw metric when more than one rank ran.
	Summaries bool
}

// Result is everything a run produces.
type Result struct {
	// Experiment is the merged database (views are built from
	// Experiment.Tree).
	Experiment *Experiment
	// Doc is the recovered structure document.
	Doc *structfile.Doc
	// Profiles are the per-rank raw profiles (inputs to imbalance
	// analysis).
	Profiles []*profile.Profile
	// Merged retains per-scope summary statistics.
	Merged *merge.Result
}

// Run executes the full pipeline: build the workload, lower it to the
// synthetic ISA, recover structure, execute under sampling on every rank,
// correlate, and merge.
func Run(cfg RunConfig) (*Result, error) {
	spec, err := workloads.ByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Ranks > 0 {
		spec.Ranks = cfg.Ranks
	}
	if cfg.Period > 0 {
		spec.Period = cfg.Period
	}
	params := spec.Params
	if cfg.Params != nil {
		merged := map[string]int64{}
		for k, v := range spec.Params {
			merged[k] = v
		}
		for k, v := range cfg.Params {
			merged[k] = v
		}
		params = merged
	}

	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		return nil, err
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		return nil, err
	}
	profs, err := mpi.Run(im, mpi.Config{
		NRanks:         spec.Ranks,
		ThreadsPerRank: cfg.Threads,
		Params:         params,
		Seed:           cfg.Seed,
		Events:         sampler.DefaultEvents(spec.Period),
	})
	if err != nil {
		return nil, err
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		return nil, err
	}
	if cfg.Summaries && len(profs) > 1 {
		for _, d := range res.Tree.Reg.Columns() {
			if d.Kind != metric.Raw {
				continue
			}
			if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev); err != nil {
				return nil, err
			}
		}
	}
	return &Result{
		Experiment: expdb.FromMerge(res),
		Doc:        doc,
		Profiles:   profs,
		Merged:     res,
	}, nil
}

// AddDerived registers a derived metric on the tree and evaluates it
// everywhere. The formula references earlier columns as $0, $1, ...
// (Section V-D); the returned column ID is usable for sorting, rendering
// and hot paths.
func AddDerived(t *Tree, name, formula string) (int, error) {
	d, err := t.Reg.AddDerived(name, formula)
	if err != nil {
		return 0, err
	}
	if err := t.ApplyDerivedTree(); err != nil {
		return 0, err
	}
	return d.ID, nil
}

// MetricColumn resolves a metric name to its column ID.
func MetricColumn(t *Tree, name string) (int, error) {
	d := t.Reg.ByName(name)
	if d == nil {
		return 0, fmt.Errorf("callpath: metric %q not found", name)
	}
	return d.ID, nil
}

// AnalyzeImbalance computes the per-rank series, statistics and histogram
// of the named metric at the scope identified by the label path (Section
// VI-C; Figure 7).
func (r *Result) AnalyzeImbalance(path []string, metricName string, bins int) (*ImbalanceReport, error) {
	return imbalance.Analyze(r.Doc, r.Profiles, path, metricName, bins)
}

// WriteXML / WriteBinary / ReadXML / ReadBinary move experiment databases
// to and from disk (ReadBinary sniffs the format, so it reads any of them).
func WriteXML(w io.Writer, e *Experiment) error    { return e.WriteXML(w) }
func WriteBinary(w io.Writer, e *Experiment) error { return e.WriteBinary(w) }
func ReadXML(r io.Reader) (*Experiment, error)     { return expdb.ReadXML(r) }
func ReadBinary(r io.Reader) (*Experiment, error)  { return expdb.Read(r) }

// Scalability analysis (Section VI-A): difference two runs of the same
// program under a scaling expectation.
type (
	// ScalingConfig describes the pair of runs being compared.
	ScalingConfig = scaling.Config
	// ScalingResult reports where scalability was lost.
	ScalingResult = scaling.Result
)

// Scaling modes.
const (
	WeakScaling   = scaling.Weak
	StrongScaling = scaling.Strong
)

// AnalyzeScaling annotates big's tree with a scaling-loss column computed
// against small's per-rank costs.
func AnalyzeScaling(small, big *Tree, cfg ScalingConfig) (*ScalingResult, error) {
	return scaling.Analyze(small, big, cfg)
}

// Interactive presentation (the hpcviewer session: expand/collapse, hot
// paths, zoom, flatten, source pane).
type (
	// Session is a stateful interactive view over a tree.
	Session = engine.Session
	// ViewKind selects the session's active view.
	ViewKind = engine.ViewKind
)

// Session view kinds.
const (
	ViewCC      = engine.ViewCC
	ViewCallers = engine.ViewCallers
	ViewFlat    = engine.ViewFlat
)

// NewSession starts an interactive session; source (a workload's Program)
// may be nil when no source pane is needed.
func NewSession(t *Tree, source *Program) *Session {
	s := engine.NewSession(engine.NewSnapshot(expdb.New(t)))
	s.SetSource(source)
	return s
}

// WorkloadProgram returns the named workload's program, e.g. to attach as
// a session's source pane.
func WorkloadProgram(name string) (*Program, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return spec.Program, nil
}
