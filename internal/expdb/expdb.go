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
	// a column whose checksum fails on first touch — so the viewer can tell
	// the user what is missing.
	Notes []string
	// TraceRanks are write-side trace sources, one per rank in ascending
	// rank order; WriteBinaryV3 streams each into a trace section and
	// bakes its zoom pyramid. Nil for databases without traces.
	TraceRanks []TraceRank
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

// finalize recomputes presented metrics after deserialization: Equations 1
// and 2 from the stored Base values, then the inclusive/exclusive
// overrides (summary statistics and externally computed columns), then
// derived columns.
func (e *Experiment) finalize(inclOv, exclOv map[*core.Node][]colVal) error {
	e.Tree.ComputeMetrics()
	for n, vals := range inclOv {
		for _, cv := range vals {
			n.Incl.Set(cv.col, cv.val)
		}
	}
	for n, vals := range exclOv {
		for _, cv := range vals {
			n.Excl.Set(cv.col, cv.val)
		}
	}
	return e.Tree.ApplyDerivedTree()
}

type colVal struct {
	col int
	val float64
}

// overrideCols returns the columns whose values cannot be recomputed from
// Base: inclusive overrides cover summary and computed columns; exclusive
// overrides only computed ones (summaries are inclusive-only).
func overrideCols(reg *metric.Registry) (incl, excl map[int]bool) {
	incl, excl = map[int]bool{}, map[int]bool{}
	for _, d := range reg.Columns() {
		switch d.Kind {
		case metric.Summary:
			incl[d.ID] = true
		case metric.Computed:
			incl[d.ID] = true
			excl[d.ID] = true
		}
	}
	return incl, excl
}

// overrideValues extracts from a metric view the entries in cols.
func overrideValues(v *metric.View, cols map[int]bool) []colVal {
	if len(cols) == 0 {
		return nil
	}
	var out []colVal
	v.Range(func(id int, x float64) {
		if cols[id] {
			out = append(out, colVal{col: id, val: x})
		}
	})
	return out
}

func kindName(k metric.Kind) string {
	switch k {
	case metric.Raw:
		return "raw"
	case metric.Derived:
		return "derived"
	case metric.Summary:
		return "summary"
	case metric.Computed:
		return "computed"
	}
	return fmt.Sprintf("kind%d", k)
}

func kindFromName(s string) (metric.Kind, error) {
	switch s {
	case "raw":
		return metric.Raw, nil
	case "derived":
		return metric.Derived, nil
	case "summary":
		return metric.Summary, nil
	case "computed":
		return metric.Computed, nil
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
			nd, err = reg.AddDerived(d.Name, d.Formula)
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
