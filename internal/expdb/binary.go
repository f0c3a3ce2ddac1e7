package expdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/framing"
)

// Compact binary database formats.
//
// v1 ("CPDB1") is a bare varint stream:
//
//	magic "CPDB1"
//	nStrings, strings (uvarint len + bytes)   -- string table
//	programRef, ranks
//	nMetrics { nameRef unitRef kindByte period formulaRef opByte src }
//	nRoots, node*
//	node := kindByte nameRef fileRef line id callLine callFileRef modRef
//	        flags
//	        nBase   { col, float64bits }*
//	        nIncl   { col, float64bits }*     -- override lists inline
//	        nExcl   { col, float64bits }*
//	        nChildren node*
//	[nIncl {col,f64}*, nExcl {col,f64}*]      -- the root's overrides
//
// v2 ("CPDB2") wraps the same encodings in the checksummed section
// container of internal/framing:
//
//	magic "CPDB2"
//	section 1 (strings):    nStrings, strings
//	section 2 (header):     programRef, ranks
//	section 3 (metrics):    nMetrics { ... as v1 ... }
//	section 4 (tree):       nRoots, preorder nodes WITHOUT override lists
//	section 5 (overrides):  nEntries { nodeIdx, nIncl {col,f64}*, nExcl {col,f64}* }
//	section 6 (provenance): attempted, merged, nBad { path, rank+1, offset+1, class, message }
//	end marker
//
// Sections 1-4 are required: damage to any of them is fatal (SectionError).
// Sections 5 and 6 are optional refinements — a failed checksum there
// degrades the open (the drop is recorded in Experiment.Notes) instead of
// losing the whole database. Node indexes in section 5 are preorder
// positions in section 4's node stream.
//
// All integers are uvarints except float64 payloads (fixed 8 bytes LE).
// Strings are interned: names, files and modules repeat across thousands
// of scopes, which is the main reason this format is much smaller than the
// XML (Section IX's motivation). codec.go holds the encoders and the one
// decoder both versions (and v3) are built from.

const (
	dbMagic   = "CPDB1"
	dbMagicV2 = "CPDB2"
)

// v2 section ids.
const (
	dbSecStrings    byte = 1
	dbSecHeader     byte = 2
	dbSecMetrics    byte = 3
	dbSecTree       byte = 4
	dbSecOverrides  byte = 5
	dbSecProvenance byte = 6
)

func sectionName(id byte) string {
	switch id {
	case dbSecStrings:
		return "strings"
	case dbSecHeader:
		return "header"
	case dbSecMetrics:
		return "metrics"
	case dbSecTree:
		return "tree"
	case dbSecOverrides:
		return "overrides"
	case dbSecProvenance:
		return "provenance"
	case dbSecTrace:
		return "trace"
	case dbSecPyramid:
		return "pyramid"
	case dbSecTraceMeta:
		return "tracemeta"
	}
	return "framing"
}

// WriteBinary serializes the experiment in the current (v2, checksummed)
// format.
func (e *Experiment) WriteBinary(w io.Writer) error {
	tab, head, err := e.encodeHead()
	if err != nil {
		return err
	}
	tree, nodes := e.appendTree(nil, tab, inlineBase)
	var prov []byte
	if e.Provenance != nil {
		prov = encodeProvenance(e.Provenance)
	}
	fw, err := framing.NewWriter(w, dbMagicV2)
	if err != nil {
		return err
	}
	// Sections 1-6 in id order; only the optional ones can be empty.
	for i, payload := range [][]byte{head[0], head[1], head[2], tree, encodeOverrides(e.Tree, nodes), prov} {
		if payload == nil {
			continue
		}
		if err := fw.Section(dbSecStrings+byte(i), payload); err != nil {
			return err
		}
	}
	return fw.Close()
}

// WriteBinaryV1 serializes the experiment in the legacy unchecksummed v1
// format, kept for compatibility tests and old-format consumers. It does
// not carry provenance.
func (e *Experiment) WriteBinaryV1(w io.Writer) error {
	tab, head, err := e.encodeHead()
	if err != nil {
		return err
	}
	b := append(append(append([]byte(dbMagic), head[0]...), head[1]...), head[2]...)
	b, _ = e.appendTree(b, tab, inlineBase|inlineOverrides)
	// Optional trailer: the root's own overrides, which no scope in the
	// tree carries. Omitted when empty so files from trees without root
	// overrides stay byte-identical to the original format; the reader
	// treats the end of input here as "no trailer".
	inclCols, exclCols := overrideCols(e.Tree.Reg)
	incl, excl := overrideValues(&e.Tree.Root.Incl, inclCols), overrideValues(&e.Tree.Root.Excl, exclCols)
	if len(incl)+len(excl) > 0 {
		b = appendVals(appendVals(b, incl), excl)
	}
	_, err = w.Write(b)
	return err
}

// Read decodes a database in any supported format — XML, binary v1, v2 or
// v3 — sniffing the leading bytes, into a fully materialized experiment.
// (A v3 file on disk is better opened with OpenMapped, which decodes only
// its index; this is the path for streams and for the old formats.)
func Read(r io.Reader) (*Experiment, error) {
	size := framing.SizeOf(r)
	br := bufio.NewReader(r)
	head, err := br.Peek(len(dbMagic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("expdb: %w", noEOF(err))
	}
	var decode func([]byte) (*Experiment, error)
	switch string(head) {
	case dbMagic:
		decode = readBinaryV1
	case dbMagicV2:
		return readBinaryV2(br, size)
	case dbMagicV3:
		decode = readBinaryV3
	default:
		return ReadXML(br)
	}
	data, err := readInput(br, size)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// readInput reads the rest of r into one buffer. size is what
// framing.SizeOf measured (-1: unknown) and the buffer is made that long at
// once: grown by doubling, it left as much garbage again as the database is
// long, in blocks so large that whether one died before or after a
// collection began marking moved the next heap goal, and the process's peak
// RSS, by tens of megabytes from one run to the next.
func readInput(r io.Reader, size int64) ([]byte, error) {
	var buf bytes.Buffer
	if size > 0 && size <= 1<<30 {
		buf = *bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("expdb: %w", err)
	}
	return buf.Bytes(), nil
}

// noEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF: a database is never
// legitimately empty mid-structure.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readBinaryV1 parses the legacy format: the three head payloads, the tree
// with inline override lists and the optional root trailer, back to back.
func readBinaryV1(data []byte) (*Experiment, error) {
	e := &Experiment{}
	d := decoder{buf: data, pos: len(dbMagic), layout: inlineBase | inlineOverrides}
	for id := dbSecStrings; id <= dbSecTree; id++ {
		if err := d.section(id, e); err != nil {
			return nil, err
		}
	}
	// Files written before the root trailer existed end with the tree.
	if d.left() > 0 {
		if err := d.overrideLists(e.Tree.Root); err != nil {
			return nil, err
		}
	}
	e.Tree.ComputeMetrics()
	return e, nil
}

// readBinaryV2 parses the framed format in one pass over its sections.
// Required sections (strings, header, metrics, tree) fail the open on any
// damage; optional sections (overrides, provenance) degrade: a failed
// checksum drops the section and records the loss in Experiment.Notes,
// while one that passes its checksum and is malformed is still fatal.
// Framing truncation is fatal wherever it falls. Every payload length is
// CRC-verified, so it is a sound bound for every count inside the section.
func readBinaryV2(r io.Reader, size int64) (*Experiment, error) {
	fr, err := framing.NewReader(r, size, dbMagicV2)
	if err != nil {
		return nil, fmt.Errorf("expdb: %w", err)
	}
	secErr := func(id byte, err error) error { return &SectionError{Section: sectionName(id), Err: err} }
	e := &Experiment{}
	d := decoder{layout: inlineBase}
	var have [dbSecTree + 1]bool

	for {
		id, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if ck := (*framing.ChecksumError)(nil); errors.As(err, &ck) {
			switch id {
			case dbSecOverrides:
				e.Notes = append(e.Notes, "overrides section failed its checksum; summary and computed columns were dropped")
				continue
			case dbSecProvenance:
				e.Notes = append(e.Notes, "provenance section failed its checksum; the quarantine record was dropped")
				continue
			}
		}
		if err != nil {
			return nil, secErr(id, err)
		}
		switch id {
		case dbSecHeader, dbSecMetrics:
			if !have[dbSecStrings] {
				return nil, secErr(id, fmt.Errorf("appears before the strings section"))
			}
		case dbSecTree:
			if !have[dbSecStrings] || !have[dbSecHeader] || !have[dbSecMetrics] {
				return nil, secErr(id, fmt.Errorf("appears before strings/header/metrics"))
			}
		case dbSecOverrides:
			if !have[dbSecTree] {
				return nil, secErr(id, fmt.Errorf("appears before the tree section"))
			}
		}
		if id <= dbSecTree {
			if have[id] {
				return nil, secErr(id, fmt.Errorf("duplicate section"))
			}
			have[id] = true
		}
		d.buf, d.pos = payload, 0
		switch id {
		case dbSecStrings, dbSecHeader, dbSecMetrics, dbSecTree:
			err = d.section(id, e)
			if err == nil && id == dbSecTree && d.left() > 0 {
				err = fmt.Errorf("expdb: trailing bytes in tree section")
			}
		case dbSecOverrides:
			err = d.overrides(e.Tree.Root)
		case dbSecProvenance:
			e.Provenance, err = d.provenance()
		default:
			// Unknown sections are skipped (their checksum was verified by
			// Next), but noted: with no newer format version in existence,
			// an unknown id more likely means a damaged id byte, and the
			// open should be visibly degraded either way.
			e.Notes = append(e.Notes, fmt.Sprintf("unknown section %d was skipped", id))
		}
		if err != nil {
			return nil, secErr(id, err)
		}
	}
	for id := dbSecStrings; id <= dbSecTree; id++ {
		if !have[id] {
			return nil, secErr(id, fmt.Errorf("section missing"))
		}
	}
	e.Tree.ComputeMetrics()
	return e, nil
}
