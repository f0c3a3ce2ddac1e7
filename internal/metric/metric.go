// Package metric provides the metric machinery used throughout the toolkit:
// metric descriptors, the columnar store every scope's costs live in (Store,
// with View as one scope's row), a spreadsheet-like formula engine for
// derived metrics (Section V-D of the paper), and streaming summary
// statistics used when merging profiles from many processes (Sections IV
// and VII).
//
// A metric is identified by its column index in a Registry; formulas refer
// to columns as $0, $1, ... exactly as hpcviewer does.
package metric

import "fmt"

// Kind classifies how a metric column obtains its values.
type Kind uint8

const (
	// Raw metrics come directly from sample counts multiplied by the
	// sample period (e.g. PAPI_TOT_CYC).
	Raw Kind = iota
	// Derived metrics are computed from other columns with a Formula.
	Derived
	// Summary metrics are statistical reductions (mean, min, max, stddev)
	// of a raw metric across processes or threads.
	Summary
	// Computed metrics hold values produced by an external analysis
	// (e.g. scaling-loss differencing of two experiments); unlike
	// Derived columns they are not re-evaluated from a formula.
	Computed
)

func (k Kind) String() string {
	switch k {
	case Raw:
		return "raw"
	case Derived:
		return "derived"
	case Summary:
		return "summary"
	case Computed:
		return "computed"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// SummaryOp identifies which statistic a Summary metric reports.
type SummaryOp uint8

const (
	OpNone SummaryOp = iota
	OpSum
	OpMean
	OpMin
	OpMax
	OpStdDev
)

func (op SummaryOp) String() string {
	switch op {
	case OpNone:
		return ""
	case OpSum:
		return "sum"
	case OpMean:
		return "mean"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpStdDev:
		return "stddev"
	}
	return fmt.Sprintf("SummaryOp(%d)", uint8(op))
}

// Desc describes one metric column.
type Desc struct {
	// ID is the column index within the registry that owns this metric.
	ID int
	// Name is the user-visible column name, e.g. "PAPI_TOT_CYC".
	Name string
	// Unit is a human-readable unit, e.g. "cycles".
	Unit string
	// Kind says whether the column is raw, derived or a summary.
	Kind Kind
	// Period is the sampling period for raw metrics: each sample
	// contributes Period events. Zero for non-raw metrics.
	Period uint64
	// Formula is the derived-metric expression for Derived columns.
	Formula string
	// Op is the statistic reported by Summary columns.
	Op SummaryOp
	// Source is the raw column a Summary column reduces, by ID.
	Source int
	// ShowPercent requests a percent-of-root annotation when rendered.
	ShowPercent bool

	// expr and prog are a Derived column's formula, parsed and compiled
	// when it is registered; nil for every other kind.
	expr *Expr
	prog *Program
}

// Registry is an ordered set of metric columns. The zero value is ready to
// use.
type Registry struct {
	cols   []*Desc
	byName map[string]*Desc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: map[string]*Desc{}} }

// Len reports the number of columns.
func (r *Registry) Len() int { return len(r.cols) }

// Columns returns the descriptors in column order. The slice is shared;
// callers must not modify it.
func (r *Registry) Columns() []*Desc { return r.cols }

// ByID returns the descriptor for column id, or nil if out of range.
func (r *Registry) ByID(id int) *Desc {
	if id < 0 || id >= len(r.cols) {
		return nil
	}
	return r.cols[id]
}

// ByName returns the descriptor with the given name, or nil.
func (r *Registry) ByName(name string) *Desc {
	if r.byName == nil {
		return nil
	}
	return r.byName[name]
}

func (r *Registry) add(d *Desc) (*Desc, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("metric: empty metric name")
	}
	if r.byName == nil {
		r.byName = map[string]*Desc{}
	}
	if _, dup := r.byName[d.Name]; dup {
		return nil, fmt.Errorf("metric: duplicate metric %q", d.Name)
	}
	d.ID = len(r.cols)
	r.cols = append(r.cols, d)
	r.byName[d.Name] = d
	return d, nil
}

// AddRaw registers a raw sampled metric with the given sampling period.
func (r *Registry) AddRaw(name, unit string, period uint64) (*Desc, error) {
	if period == 0 {
		return nil, fmt.Errorf("metric: raw metric %q needs a non-zero period", name)
	}
	return r.add(&Desc{Name: name, Unit: unit, Kind: Raw, Period: period, ShowPercent: true})
}

// AddDerived registers a derived metric computed by formula. The formula is
// parsed and compiled here, so every error it can cause is returned here:
// a store evaluates the column on its first read, which cannot fail.
func (r *Registry) AddDerived(name, formula string) (*Desc, error) {
	expr, err := Parse(formula)
	if err != nil {
		return nil, fmt.Errorf("metric: derived metric %q: %w", name, err)
	}
	return r.addDerived(name, expr)
}

func (r *Registry) addDerived(name string, expr *Expr) (*Desc, error) {
	// Validate column references against columns registered so far. A
	// derived metric may only refer to earlier columns; this both matches
	// hpcviewer's incremental column model and rules out cycles.
	for _, ref := range expr.ColumnRefs() {
		if ref < 0 || ref >= len(r.cols) {
			return nil, fmt.Errorf("metric: derived metric %q refers to unknown column $%d", name, ref)
		}
	}
	prog, err := expr.Compile()
	if err != nil {
		return nil, fmt.Errorf("metric: derived metric %q: %w", name, err)
	}
	return r.add(&Desc{Name: name, Kind: Derived, Formula: expr.String(), expr: expr, prog: prog})
}

// program returns column id's compiled formula, nil unless it is a
// Derived column.
func (r *Registry) program(id int) *Program {
	if id < 0 || id >= len(r.cols) {
		return nil
	}
	return r.cols[id].prog
}

// AddComputed registers a column whose values an external analysis fills
// in directly (e.g. scaling loss). Such values are serialized verbatim by
// the experiment database rather than recomputed at load.
func (r *Registry) AddComputed(name, unit string) (*Desc, error) {
	return r.add(&Desc{Name: name, Unit: unit, Kind: Computed})
}

// Clone returns a registry sharing the receiver's column descriptors but
// owning its own column list and name index: columns added to the clone are
// invisible to the original (and vice versa — but the original must not gain
// columns after cloning, or IDs would collide). This is how a presentation
// session overlays private derived columns on a shared, sealed database
// registry without mutating it.
func (r *Registry) Clone() *Registry {
	c := &Registry{
		cols:   append([]*Desc(nil), r.cols...),
		byName: make(map[string]*Desc, len(r.cols)),
	}
	for _, d := range r.cols {
		c.byName[d.Name] = d
	}
	return c
}

// AddSummary registers a summary statistic over the raw column src.
func (r *Registry) AddSummary(src int, op SummaryOp) (*Desc, error) {
	sd := r.ByID(src)
	if sd == nil {
		return nil, fmt.Errorf("metric: summary over unknown column %d", src)
	}
	name := fmt.Sprintf("%s (%s)", sd.Name, op)
	d := &Desc{Name: name, Unit: sd.Unit, Kind: Summary, Op: op, Source: src}
	d.ShowPercent = op == OpSum
	return r.add(d)
}

// Expr returns the parsed formula of a Derived column.
func (d *Desc) Expr() (*Expr, error) {
	if d.Kind != Derived {
		return nil, fmt.Errorf("metric: %q is not a derived metric", d.Name)
	}
	return d.expr, nil
}
