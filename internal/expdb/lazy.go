package expdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/ingest"
	"repro/internal/intern"
	"repro/internal/metric"
)

// LazyDB is a lazily opened experiment database. For the v2 format the open
// exploits the section framing: the string table, header, metric table and
// CCT are decoded eagerly (they are needed for any query at all), while the
// optional sections — summary/computed overrides and the provenance record —
// are retained as raw, already-CRC-verified payloads and decoded only when
// something actually reads them. A viewer session that never displays a
// summary column never pays for decoding it.
//
// Laziness is invisible to correctness: faulting a section in produces
// exactly the state an eager Read would have built (the eager v2 reader is
// in fact OpenLazy followed by MaterializeAll), and damage to a skipped
// section surfaces on first access with the same typed error or degradation
// note the eager open reports — never a panic.
//
// v1 and XML databases have no section framing to exploit; OpenLazy falls
// back to an eager decode and every accessor is already satisfied.
//
// The fault-in entry points (NeedColumn, MaterializeAll, Provenance) are
// serialized by an internal mutex, so concurrent sessions sharing one
// database cannot double-decode a section or race its bookkeeping. Faulting
// still mutates the tree, however: callers running queries concurrently
// with a possible fault-in must order readers against it themselves (the
// engine's snapshot does, with a read-write lock around fault-in versus
// queries).
type LazyDB struct {
	// mu serializes fault-in: section decode, tree override application and
	// the loaded/damage bookkeeping below.
	mu sync.Mutex

	exp   *Experiment
	nodes []*core.Node // preorder nodes of the tree section (v2 only)

	// Retained CRC-verified payloads of each occurrence of the optional
	// sections, in stream order (the writer emits at most one of each, but
	// the eager reader decodes every occurrence, so the lazy path does too).
	// The damage counters record occurrences whose checksum failed.
	ovPayloads [][]byte
	ovDamaged  int
	ovLoaded   bool
	ovErr      error

	provPayloads [][]byte
	provDamaged  int
	provLoaded   bool
	provErr      error

	lazy  bool
	reads map[string]int
}

// OpenLazy opens a database with section-skipping laziness when the format
// allows it (v2); v1 and XML fall back to an eager decode.
func OpenLazy(r io.Reader) (*LazyDB, error) {
	size := framing.SizeOf(r)
	br := bufio.NewReader(r)
	head, err := br.Peek(len(dbMagic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("expdb: %w", noEOF(err))
	}
	switch string(head) {
	case dbMagicV2:
		return openLazyV2(br, size)
	case dbMagicV3:
		// A lazy stream open cannot skip within an unseekable reader, and
		// the mappable layout already pays nothing at open when mapped
		// (OpenMapped); here decode eagerly, fully verified.
		e, err := readBinaryV3(br, size)
		if err != nil {
			return nil, err
		}
		return eagerDB(e), nil
	case dbMagic:
		e, err := readBinaryV1(br, size)
		if err != nil {
			return nil, err
		}
		return eagerDB(e), nil
	default:
		e, err := ReadXML(br)
		if err != nil {
			return nil, err
		}
		return eagerDB(e), nil
	}
}

// eagerDB wraps a fully decoded experiment: every fault-in is already
// satisfied.
func eagerDB(e *Experiment) *LazyDB {
	return &LazyDB{exp: e, ovLoaded: true, provLoaded: true, reads: map[string]int{}}
}

// Experiment returns the database. Columns backed by not-yet-faulted
// sections read as zero until NeedColumn or MaterializeAll loads them.
func (db *LazyDB) Experiment() *Experiment { return db.exp }

// Lazy reports whether any sections are being faulted on demand (true only
// for v2 databases).
func (db *LazyDB) Lazy() bool { return db.lazy }

// SectionReads reports how many times each v2 section has been decoded,
// keyed by section name — the observable that lazy opens skip untouched
// sections. The map is a copy.
func (db *LazyDB) SectionReads() map[string]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string]int, len(db.reads))
	for k, v := range db.reads {
		out[k] = v
	}
	return out
}

// NeedColumn ensures the values of metric column id are resident, faulting
// in the overrides section when the column (or, for a derived column, any
// column its formula transitively reads) is override-backed. The returned
// error is the same typed *SectionError an eager open would have reported
// for a malformed section; checksum damage degrades with a note instead.
func (db *LazyDB) NeedColumn(id int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.ovLoaded {
		return db.ovErr
	}
	if columnNeedsOverrides(db.exp.Tree.Reg, id) {
		return db.loadOverrides()
	}
	return nil
}

// columnNeedsOverrides reports whether column id's values come (directly or
// through a derived formula) from the overrides section: summary and
// computed columns are stored there, and a derived column needs it when any
// referenced column does. Derived formulas only reference earlier columns,
// so the recursion terminates.
func columnNeedsOverrides(reg *metric.Registry, id int) bool {
	d := reg.ByID(id)
	if d == nil {
		return false
	}
	switch d.Kind {
	case metric.Summary, metric.Computed:
		return true
	case metric.Derived:
		e, err := d.Expr()
		if err != nil {
			return true // be conservative: fault in, let evaluation report
		}
		for _, ref := range e.ColumnRefs() {
			if columnNeedsOverrides(reg, ref) {
				return true
			}
		}
	}
	return false
}

// MaterializeAll faults in every retained section, producing exactly the
// eager-open state. Use before handing the experiment to concurrent
// readers or non-interactive processing.
func (db *LazyDB) MaterializeAll() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.loadOverrides(); err != nil {
		return err
	}
	return db.loadProvenance()
}

// Provenance faults in the provenance section and returns the quarantine
// report (nil when the database has none or the damaged section was
// dropped).
func (db *LazyDB) Provenance() (*ingest.Report, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.loadProvenance(); err != nil {
		return nil, err
	}
	return db.exp.Provenance, nil
}

// loadOverrides and loadProvenance run with db.mu held.
func (db *LazyDB) loadOverrides() error {
	if db.ovLoaded {
		return db.ovErr
	}
	db.ovLoaded = true
	for ; db.ovDamaged > 0; db.ovDamaged-- {
		db.exp.Notes = append(db.exp.Notes, "overrides section failed its checksum; summary and computed columns were dropped")
	}
	if len(db.ovPayloads) == 0 {
		return nil
	}
	db.reads["overrides"]++
	inclOv := map[*core.Node][]colVal{}
	exclOv := map[*core.Node][]colVal{}
	for _, payload := range db.ovPayloads {
		bound := int64(len(payload))
		pr := bufio.NewReader(bytes.NewReader(payload))
		if err := readOverridesSection(pr, db.exp.Tree.Root, db.nodes, inclOv, exclOv, func() int64 { return bound }); err != nil {
			db.ovErr = &SectionError{Section: "overrides", Err: err}
			return db.ovErr
		}
	}
	db.ovPayloads = nil
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
	// Re-run derived kernels: formulas over summary/computed inputs now see
	// the faulted values. Whole columns are overwritten, so this lands on
	// the same state the eager order (overrides before derived) produces.
	if err := db.exp.Tree.ApplyDerivedTree(); err != nil {
		db.ovErr = err
		return err
	}
	return nil
}

func (db *LazyDB) loadProvenance() error {
	if db.provLoaded {
		return db.provErr
	}
	db.provLoaded = true
	for ; db.provDamaged > 0; db.provDamaged-- {
		db.exp.Notes = append(db.exp.Notes, "provenance section failed its checksum; the quarantine record was dropped")
	}
	if len(db.provPayloads) == 0 {
		return nil
	}
	db.reads["provenance"]++
	for _, payload := range db.provPayloads {
		bound := int64(len(payload))
		pr := bufio.NewReader(bytes.NewReader(payload))
		rep, err := readProvenanceSection(pr, func() int64 { return bound })
		if err != nil {
			db.provErr = &SectionError{Section: "provenance", Err: err}
			return db.provErr
		}
		db.exp.Provenance = rep
	}
	db.provPayloads = nil
	return nil
}

// openLazyV2 scans the framed stream once: required sections (strings,
// header, metrics, tree) are decoded on the spot — damage there is fatal —
// while the optional overrides/provenance payloads are retained undecoded
// (or flagged damaged) for on-demand faulting. Framing truncation is fatal
// at open: the scan consumes every frame, paying the CRC pass up front.
func openLazyV2(br *bufio.Reader, size int64) (*LazyDB, error) {
	fr, err := framing.NewReader(br, size, dbMagicV2)
	if err != nil {
		return nil, fmt.Errorf("expdb: %w", err)
	}
	db := &LazyDB{exp: &Experiment{}, lazy: true, reads: map[string]int{}}
	e := db.exp
	var syms []intern.Sym
	var descs []metricDesc
	var haveStrings, haveHeader, haveMetrics, haveTree bool

	for {
		id, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		var ck *framing.ChecksumError
		if errors.As(err, &ck) {
			switch id {
			case dbSecOverrides:
				db.ovDamaged++
				continue
			case dbSecProvenance:
				db.provDamaged++
				continue
			default:
				return nil, &SectionError{Section: sectionName(id), Err: err}
			}
		}
		if err != nil {
			return nil, &SectionError{Section: sectionName(id), Err: err}
		}
		pr := bufio.NewReader(bytes.NewReader(payload))
		// The payload length is CRC-verified, so it is a sound allocation
		// bound for every count inside the section.
		bound := int64(len(payload))
		switch id {
		case dbSecStrings:
			if haveStrings {
				return nil, &SectionError{Section: "strings", Err: fmt.Errorf("duplicate section")}
			}
			nStr, err := getU(pr)
			if err != nil {
				return nil, &SectionError{Section: "strings", Err: noEOF(err)}
			}
			if int64(nStr) > bound {
				return nil, &SectionError{Section: "strings", Err: fmt.Errorf("implausible string count %d", nStr)}
			}
			syms, err = readStrTable(pr, nStr, func() int64 { return bound })
			if err != nil {
				return nil, &SectionError{Section: "strings", Err: err}
			}
			db.reads["strings"]++
			haveStrings = true
		case dbSecHeader:
			if !haveStrings {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("appears before the strings section")}
			}
			if haveHeader {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("duplicate section")}
			}
			progRef, err := getU(pr)
			if err != nil {
				return nil, &SectionError{Section: "header", Err: noEOF(err)}
			}
			if progRef >= uint64(len(syms)) {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("string ref %d out of range", progRef)}
			}
			e.Program = syms[progRef].String()
			ranks, err := getU(pr)
			if err != nil {
				return nil, &SectionError{Section: "header", Err: noEOF(err)}
			}
			if ranks > math.MaxInt32 {
				return nil, &SectionError{Section: "header", Err: fmt.Errorf("implausible rank count %d", ranks)}
			}
			e.NRanks = int(ranks)
			db.reads["header"]++
			haveHeader = true
		case dbSecMetrics:
			if !haveStrings {
				return nil, &SectionError{Section: "metrics", Err: fmt.Errorf("appears before the strings section")}
			}
			if haveMetrics {
				return nil, &SectionError{Section: "metrics", Err: fmt.Errorf("duplicate section")}
			}
			getS := func() (string, error) {
				i, err := getU(pr)
				if err != nil {
					return "", err
				}
				if i >= uint64(len(syms)) {
					return "", fmt.Errorf("expdb: string ref %d out of range", i)
				}
				return syms[i].String(), nil
			}
			descs, err = readMetricDescs(pr, getS, func() int64 { return bound })
			if err != nil {
				return nil, &SectionError{Section: "metrics", Err: err}
			}
			db.reads["metrics"]++
			haveMetrics = true
		case dbSecTree:
			if !haveStrings || !haveHeader || !haveMetrics {
				return nil, &SectionError{Section: "tree", Err: fmt.Errorf("appears before strings/header/metrics")}
			}
			if haveTree {
				return nil, &SectionError{Section: "tree", Err: fmt.Errorf("duplicate section")}
			}
			reg, err := rebuildRegistry(descs)
			if err != nil {
				return nil, &SectionError{Section: "metrics", Err: err}
			}
			e.Tree = core.NewTree(e.Program, reg)
			db.nodes, err = readTreeSection(pr, e, syms, func() int64 { return bound })
			if err != nil {
				return nil, &SectionError{Section: "tree", Err: err}
			}
			db.reads["tree"]++
			haveTree = true
		case dbSecOverrides:
			if !haveTree {
				return nil, &SectionError{Section: "overrides", Err: fmt.Errorf("appears before the tree section")}
			}
			db.ovPayloads = append(db.ovPayloads, payload)
		case dbSecProvenance:
			db.provPayloads = append(db.provPayloads, payload)
		default:
			// Unknown sections are skipped (their checksum was verified by
			// Next), but noted: with no newer format version in existence,
			// an unknown id more likely means a damaged id byte, and the
			// open should be visibly degraded either way.
			e.Notes = append(e.Notes, fmt.Sprintf("unknown section %d was skipped", id))
		}
	}
	if !haveStrings || !haveHeader || !haveMetrics || !haveTree {
		missing := ""
		for _, s := range []struct {
			ok   bool
			name string
		}{{haveStrings, "strings"}, {haveHeader, "header"}, {haveMetrics, "metrics"}, {haveTree, "tree"}} {
			if !s.ok {
				missing = s.name
				break
			}
		}
		return nil, &SectionError{Section: missing, Err: fmt.Errorf("section missing")}
	}
	if err := e.finalize(nil, nil); err != nil {
		return nil, err
	}
	return db, nil
}
