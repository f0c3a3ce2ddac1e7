// Package expdb reads and writes experiment databases: the fused artifact
// hpcprof hands to hpcviewer. A database stores the metric table (raw,
// derived and summary columns) and the canonical calling context tree with
// each scope's directly attributed costs; presented inclusive/exclusive
// values are recomputed at load time exactly as hpcviewer computes metrics
// during its initialization step (Section IV-A).
//
// CPDB3 (v3.go) is the database: a mappable layout whose column sections are
// the in-memory representation, opened in O(index) by OpenMapped — the
// "more compact binary format" Section IX names as the replacement for XML,
// and what hpcprof and hpcdiff write unless told otherwise. The older
// formats — XML (the paper's), the varint stream v1 and the checksummed
// sections of v2 (binary.go) — are still written on request and are read by
// decoding them whole (Read). The E-FMT benchmark compares their sizes.
package expdb

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/merge"
	"repro/internal/metric"
)

// Experiment is an in-memory database.
type Experiment struct {
	// Program names the measured program.
	Program string
	// NRanks is the number of processes merged into the database.
	NRanks int
	// Tree is the canonical CCT with metrics computed.
	Tree *core.Tree
	// Provenance records how the database was produced when hpcprof
	// quarantined ranks ("merged 1021/1024 ranks"); nil when every rank
	// merged cleanly or the database predates provenance.
	Provenance *ingest.Report
	// Notes lists degradations applied while loading — a v2 database with a
	// damaged optional section opens without it, a mapped v3 database drops
	// a column whose checksum fails — so the viewer can tell the user what
	// is missing.
	Notes []string
}

// SectionError reports fatal damage to one section of a v2 or v3 database:
// the section is required and its payload was damaged, or it is malformed
// behind a good checksum, so the database cannot be opened.
type SectionError struct {
	// Section names the damaged section ("strings", "header", "metrics",
	// "tree", "overrides", "provenance" or "framing").
	Section string
	Err     error
}

func (e *SectionError) Error() string {
	return fmt.Sprintf("expdb: %s section: %v", e.Section, e.Err)
}

func (e *SectionError) Unwrap() error { return e.Err }

// WriterFor returns the encoder a -format flag value names: "v3" (CPDB3,
// the default of every tool that writes a database), "binary" (v2) or
// "xml". Tools call it while parsing flags, so a bad value is reported
// before any input is read.
func WriterFor(format string) (func(*Experiment, io.Writer) error, error) {
	switch format {
	case "v3":
		return (*Experiment).WriteBinaryV3, nil
	case "binary":
		return (*Experiment).WriteBinary, nil
	case "xml":
		return (*Experiment).WriteXML, nil
	}
	return nil, fmt.Errorf("unknown format %q (want v3, binary or xml)", format)
}

// New wraps a computed tree as a single-rank experiment.
func New(t *core.Tree) *Experiment {
	return &Experiment{Program: t.Program, NRanks: 1, Tree: t}
}

// FromMerge wraps a merged multi-rank result.
func FromMerge(m *merge.Result) *Experiment {
	return &Experiment{Program: m.Tree.Program, NRanks: m.NRanks, Tree: m.Tree}
}

type colVal struct {
	col int
	val float64
}

// The planes a database stores values in: Base, and the inclusive and
// exclusive overrides (stored presented values).
const (
	planeBase = iota
	planeIncl
	planeExcl
)

var planeName = [...]string{"base", "inclusive override", "exclusive override"}

// stores reports whether a database stores values of a column of kind k in
// plane p: Base values for raw columns, which ComputeMetrics presents by
// Equations 1-2; inclusive overrides for summary and computed columns;
// exclusive overrides for computed ones only (summaries are inclusive-only).
// The writers write and the readers accept exactly these.
func stores(k metric.Kind, p int) bool {
	if p == planeBase {
		return k == metric.Raw
	}
	return k == metric.Computed || p == planeIncl && k == metric.Summary
}

// valueCol checks the column a decoded value names: one the registry
// declares, of a kind the database stores in plane p.
func valueCol(reg *metric.Registry, col uint64, p int) (int, error) {
	if col >= uint64(reg.Len()) {
		return 0, fmt.Errorf("expdb: value for column %d; the database declares %d", col, reg.Len())
	}
	if k := reg.ByID(int(col)).Kind; !stores(k, p) {
		return 0, fmt.Errorf("expdb: %s value for %s column %d", planeName[p], kindName(k), col)
	}
	return int(col), nil
}

// overrideCols returns the columns whose values cannot be recomputed from
// Base, ascending, for each override plane.
func overrideCols(reg *metric.Registry) (incl, excl []int) {
	for _, d := range reg.Columns() {
		if stores(d.Kind, planeIncl) {
			incl = append(incl, d.ID)
		}
		if stores(d.Kind, planeExcl) {
			excl = append(excl, d.ID)
		}
	}
	return incl, excl
}

// overrideValues extracts from a metric view its non-zero entries in cols.
func overrideValues(v *metric.View, cols []int) []colVal {
	var out []colVal
	for _, id := range cols {
		if x := v.Get(id); x != 0 {
			out = append(out, colVal{col: id, val: x})
		}
	}
	return out
}

func kindName(k metric.Kind) string { return k.String() }

func kindFromName(s string) (metric.Kind, error) {
	for _, k := range []metric.Kind{metric.Raw, metric.Derived, metric.Summary, metric.Computed} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("expdb: unknown metric kind %q", s)
}

func opName(op metric.SummaryOp) string { return op.String() }

func opFromName(s string) (metric.SummaryOp, error) {
	for _, op := range []metric.SummaryOp{metric.OpSum, metric.OpMean, metric.OpMin, metric.OpMax, metric.OpStdDev} {
		if op.String() == s {
			return op, nil
		}
	}
	return metric.OpNone, fmt.Errorf("expdb: unknown summary op %q", s)
}

// rebuildRegistry reconstructs a registry from serialized descriptors,
// preserving column order.
func rebuildRegistry(descs []metricDesc) (*metric.Registry, error) {
	reg := metric.NewRegistry()
	for i, d := range descs {
		kind, err := kindFromName(d.Kind)
		if err != nil {
			return nil, err
		}
		var nd *metric.Desc
		switch kind {
		case metric.Raw:
			nd, err = reg.AddRaw(d.Name, d.Unit, d.Period)
		case metric.Derived:
			if nd, err = reg.AddDerived(d.Name, d.Formula); err == nil {
				nd.Unit = d.Unit
			}
		case metric.Summary:
			var op metric.SummaryOp
			op, err = opFromName(d.Op)
			if err == nil {
				nd, err = reg.AddSummary(d.Source, op)
			}
		case metric.Computed:
			nd, err = reg.AddComputed(d.Name, d.Unit)
		}
		if err != nil {
			return nil, fmt.Errorf("expdb: metric %d (%q): %w", i, d.Name, err)
		}
		if nd.ID != i {
			return nil, fmt.Errorf("expdb: metric %q mapped to column %d, want %d", d.Name, nd.ID, i)
		}
	}
	return reg, nil
}

// metricDesc is the serialized form of one metric column.
type metricDesc struct {
	Name    string
	Unit    string
	Kind    string
	Period  uint64
	Formula string
	Op      string
	Source  int
}

func descsOf(reg *metric.Registry) []metricDesc {
	out := make([]metricDesc, 0, reg.Len())
	for _, d := range reg.Columns() {
		out = append(out, metricDesc{
			Name:    d.Name,
			Unit:    d.Unit,
			Kind:    kindName(d.Kind),
			Period:  d.Period,
			Formula: d.Formula,
			Op:      opName(d.Op),
			Source:  d.Source,
		})
	}
	return out
}

// Summary-name caveat: AddSummary derives its column name from the source
// column; round trips preserve it because source columns precede summary
// columns in registry order.
