package pprofio

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/metric"
)

// Export writes an opened experiment database as a gzipped pprof profile.
// Raw metric columns become sample types (summary/derived columns are
// recomputable presentation and are not exported); every tree scope
// becomes one location, visited in child order, and each scope holding
// directly attributed cost — plus every leaf, so empty paths survive —
// becomes one sample with its leaf-first location chain. The "repro:"
// markers make the encoding lossless: importing an export rebuilds a
// byte-identical tree and metric registry. Sample values are integers, so
// a Base cell that is not an int64 (a fraction, as a per-rank normalized
// diff union holds) is refused with an error naming its scope and column,
// and nothing is written. Foreign pprof tools still see an ordinary
// symbolized profile.
//
// The output is deterministic: ids follow tree child order, the string
// table is first-use ordered, and no timestamps are recorded.
func Export(e *expdb.Experiment, w io.Writer) error {
	var raw []*metric.Desc
	for _, d := range e.Tree.Reg.Columns() {
		if d.Kind == metric.Raw {
			raw = append(raw, d)
		}
	}
	if len(raw) == 0 {
		return fmt.Errorf("pprofio: experiment has no raw metric columns to export")
	}

	st := newStringTable()
	p := &proto{strings: nil} // string table attached at the end
	periods := make([]string, len(raw))
	for i, d := range raw {
		p.sampleTypes = append(p.sampleTypes, valueType{typ: st.id(d.Name), unit: st.id(d.Unit)})
		periods[i] = strconv.FormatUint(d.Period, 10)
	}
	p.periodType = p.sampleTypes[0]
	p.period = int64(raw[0].Period)

	ex := &exporter{
		p:      p,
		st:     st,
		raw:    raw,
		fnIDs:  map[function]uint64{},
		mapIDs: map[int64]uint64{},
	}
	for _, c := range e.Tree.Root.Children {
		if err := ex.node(c, nil); err != nil {
			return err
		}
	}

	p.comments = append(p.comments,
		st.id(commentProgram+e.Program),
		st.id(commentNRanks+strconv.Itoa(e.NRanks)),
		st.id(commentPeriods+strings.Join(periods, ",")))
	p.strings = st.list

	zw := gzip.NewWriter(w)
	if _, err := zw.Write(p.marshal()); err != nil {
		return fmt.Errorf("pprofio: export: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("pprofio: export: %w", err)
	}
	return nil
}

// exporter carries the dedup tables of one Export walk.
type exporter struct {
	p   *proto
	st  *stringTable
	raw []*metric.Desc
	// fnIDs dedups functions by exact content; mapIDs dedups mappings by
	// module name (string table index).
	fnIDs  map[function]uint64
	mapIDs map[int64]uint64
}

// node emits one tree scope as a location (and, when it holds cost or is
// a leaf, a sample) and recurses; chain is the leaf-first location-id
// path of the ancestors. It refuses a Base cell no sample value can hold.
func (ex *exporter) node(n *core.Node, chain []uint64) error {
	locID := uint64(len(ex.p.locations) + 1)
	ex.p.locations = append(ex.p.locations, location{
		id:        locID,
		mappingID: ex.mapping(n),
		address:   n.Key.ID,
		lines:     ex.lines(n),
	})
	chain = append([]uint64{locID}, chain...)

	vals := make([]int64, len(ex.raw))
	hasCost := false
	for i, d := range ex.raw {
		v := n.Base.Get(d.ID)
		if v != math.Trunc(v) || v < math.MinInt64 || v >= math.MaxInt64 {
			return fmt.Errorf("pprofio: %s: column %q holds %v, which is no integer sample value", n.Label(), d.Name, v)
		}
		vals[i] = int64(v)
		if v != 0 {
			hasCost = true
		}
	}
	if hasCost || len(n.Children) == 0 {
		locs := make([]uint64, len(chain))
		copy(locs, chain)
		ex.p.samples = append(ex.p.samples, sample{locs: locs, values: vals})
	}
	for _, c := range n.Children {
		if err := ex.node(c, chain); err != nil {
			return err
		}
	}
	return nil
}

// lines encodes a scope's identity: the main line carries the scope's
// source line (Line.line), its call-site line (Line.column) and its kind
// (the function's system_name marker); a second marker line carries the
// call-site file when one is recorded.
func (ex *exporter) lines(n *core.Node) []line {
	mark := markFor(n.Kind)
	if n.NoSource {
		mark += markNoSource
	}
	// The display name keeps foreign pprof tools useful on our exports:
	// frames and aliens show their procedure name verbatim (the importer
	// reads it back), loops and statements — which have no name of their
	// own — show their rendered source position.
	name := n.Key.Name.String()
	if n.Kind == core.KindLoop || n.Kind == core.KindStmt {
		name = n.Label()
	}
	lines := []line{{
		functionID: ex.function(function{
			name:       ex.st.id(name),
			systemName: ex.st.id(mark),
			filename:   ex.st.id(n.Key.File.String()),
			startLine:  int64(startLine(n)),
		}),
		line:   int64(n.Key.Line),
		column: int64(n.CallLine),
	}}
	if n.CallFile != 0 {
		lines = append(lines, line{
			functionID: ex.function(function{
				systemName: ex.st.id(markCallFile),
				filename:   ex.st.id(n.CallFile.String()),
			}),
		})
	}
	return lines
}

func markFor(k core.Kind) string {
	switch k {
	case core.KindLoop:
		return markLoop
	case core.KindAlien:
		return markAlien
	case core.KindStmt:
		return markStmt
	}
	return markFrame
}

// startLine gives foreign tools a function start line for frames; the
// importer takes the scope line from Line.line instead.
func startLine(n *core.Node) int {
	if n.Kind == core.KindFrame {
		return n.Key.Line
	}
	return 0
}

// function interns one function message, content-addressed.
func (ex *exporter) function(f function) uint64 {
	if id, ok := ex.fnIDs[f]; ok {
		return id
	}
	id := uint64(len(ex.p.functions) + 1)
	ex.fnIDs[f] = id
	f.id = id
	ex.p.functions = append(ex.p.functions, f)
	return id
}

// mapping interns one load-module mapping; scopes without a module get
// mapping id 0 (unset).
func (ex *exporter) mapping(n *core.Node) uint64 {
	if n.Mod == 0 {
		return 0
	}
	fn := ex.st.id(n.Mod.String())
	if id, ok := ex.mapIDs[fn]; ok {
		return id
	}
	id := uint64(len(ex.p.mappings) + 1)
	ex.p.mappings = append(ex.p.mappings, mapping{id: id, filename: fn})
	ex.mapIDs[fn] = id
	return id
}
