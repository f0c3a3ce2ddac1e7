package expdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/metric"
	"repro/internal/mmapio"
)

// v3 ("CPDB3") is the zero-copy layout: the on-disk column sections ARE the
// in-memory representation. Where v2 stores sparse per-node value lists
// that must be decoded into heap slabs, v3 stores each metric column of
// each plane (Base, inclusive, exclusive — all three presented planes are
// baked at write time) as a dense little-endian float64 slab that a reader
// can mmap and hand to metric.Store verbatim:
//
//	offset 0   magic "CPDB3\x00\x00\x00"                  (8 bytes)
//	offset 8   sections, back to back at 8-aligned offsets,
//	           zero-padded to the next 8-byte boundary
//	           kinds: 1 strings, 2 header, 3 metrics, 4 tree (no base
//	           values — they live in the column slabs), 6 provenance,
//	           7 column (plane byte + column id; dense rows×8 payload),
//	           8 trace (col = rank; 16-byte records), 9 pyramid
//	           (col = rank, plane = level; 8-byte buckets), 10 tracemeta
//	           (singleton; 32-byte per-rank geometry entries)
//	index      count × 32-byte fixed-width entries:
//	           { kind u8, plane u8, rsvd u16, col u32,
//	             offset u64, length u64, crc32c u32, rsvd u32 }
//	trailer    { indexOff u64, count u64, indexCRC u32, rsvd u32,
//	             end magic "CPDB3IDX" }                    (32 bytes)
//
// Open is O(index): only the trailer and index are decoded and validated.
// The first Experiment() call decodes the metadata and checks every column
// section's CRC32C (over its padded span, so every file byte is covered by
// exactly one check); trace sections are checked when the trace view is
// first built. Row ids are
// structural: row 0 is the tree's root, preorder node i is row i+1, so the
// slab index in the file equals the store row the reader's arena assigns.
// All-zero columns are omitted; zeros are written as +0 bits (the store
// never holds -0), keeping mapped reads bitwise equal to a v2 decode.
// MagicV3 is the sniffable prefix of the mappable v3 format, exported so
// callers can decide between a stream open and OpenMapped.
const MagicV3 = dbMagicV3

const (
	dbMagicV3     = "CPDB3"
	dbMagicV3Full = "CPDB3\x00\x00\x00"
	dbMagicV3End  = "CPDB3IDX"
)

// dbSecColumn is the v3-only section kind holding one dense column slab.
const dbSecColumn byte = 7

// v3-only trace section kinds. Trace sections hold one rank's raw
// fixed-width event records (col = rank); pyramid sections hold one zoom
// level of that rank's mipmap (col = rank, plane = level, 0 finest);
// tracemeta is a singleton table of 32-byte per-rank geometry entries:
//
//	{ rank u32, nbuckets u32, count u64, lastT u64, width u64 }
const (
	dbSecTrace     byte = 8
	dbSecPyramid   byte = 9
	dbSecTraceMeta byte = 10
)

// traceMetaEntrySize is the fixed width of one tracemeta table entry.
const traceMetaEntrySize = 32

const (
	v3EntrySize   = 32
	v3TrailerSize = 32
)

// v3sec is one decoded index entry.
type v3sec struct {
	kind   uint8
	plane  uint8
	col    uint32
	off    int64
	length int64 // logical, excluding pad
	crc    uint32
}

func v3PlaneName(p uint8) string {
	switch metric.Plane(p) {
	case metric.PlaneBase:
		return "base"
	case metric.PlaneIncl:
		return "inclusive"
	case metric.PlaneExcl:
		return "exclusive"
	}
	return fmt.Sprintf("plane%d", p)
}

// --- writer ----------------------------------------------------------

// WriteBinaryV3 serializes the experiment in the mappable v3 format. The
// presented inclusive/exclusive planes are baked into column slabs, so a
// v3 open never recomputes metrics. A derived column's planes are read
// through the store, which evaluates its formula, and baked like the rest;
// a v3 open verifies them but evaluates the formula again on first read.
func (e *Experiment) WriteBinaryV3(w io.Writer) error {
	tab, head, err := e.encodeHead()
	if err != nil {
		return err
	}
	tree, nodes := e.appendTree(nil, tab, 0)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(dbMagicV3Full); err != nil {
		return err
	}
	aw := framing.NewAlignedWriter(bw, int64(len(dbMagicV3Full)))

	type entry struct {
		kind  uint8
		plane uint8
		col   uint32
		sec   framing.AlignedSection
	}
	var entries []entry
	add := func(kind, plane uint8, col uint32, sec framing.AlignedSection) {
		entries = append(entries, entry{kind, plane, col, sec})
	}
	emit := func(kind, plane uint8, col uint32, payload []byte) error {
		sec, err := aw.Section(payload)
		if err != nil {
			return err
		}
		add(kind, plane, col, sec)
		return nil
	}
	for i, payload := range [][]byte{head[0], head[1], head[2], tree} {
		if err := emit(dbSecStrings+byte(i), 0, 0, payload); err != nil {
			return err
		}
	}

	// Column slabs: row 0 is the root, preorder node i is row i+1 — the
	// same rows the reader's arena will assign. All-zero slabs are omitted
	// (absent columns read as zero); zeros are written as +0 bits.
	rows := len(nodes) + 1
	slab := make([]byte, rows*8)
	views := [3]func(n *core.Node) *metric.View{
		func(n *core.Node) *metric.View { return &n.Base },
		func(n *core.Node) *metric.View { return &n.Incl },
		func(n *core.Node) *metric.View { return &n.Excl },
	}
	nCols := e.Tree.Reg.Len()
	for col := 0; col < nCols; col++ {
		for plane := 0; plane < 3; plane++ {
			view := views[plane]
			nonzero := false
			put := func(row int, n *core.Node) {
				v := view(n).Get(col)
				bits := math.Float64bits(v)
				if v == 0 {
					bits = 0
				} else {
					nonzero = true
				}
				binary.LittleEndian.PutUint64(slab[row*8:], bits)
			}
			put(0, e.Tree.Root)
			for i, n := range nodes {
				put(i+1, n)
			}
			if !nonzero {
				continue
			}
			if err := emit(dbSecColumn, uint8(plane), uint32(col), slab); err != nil {
				return err
			}
		}
	}
	if e.Provenance != nil {
		if err := emit(dbSecProvenance, 0, 0, encodeProvenance(e.Provenance)); err != nil {
			return err
		}
	}
	// Trace sections stream through the aligned writer so peak memory
	// stays at the chunk buffer regardless of event count; each rank's
	// pyramid is built in the same single pass.
	if err := e.writeTraceSections(aw, emit, add); err != nil {
		return err
	}

	idx := make([]byte, len(entries)*v3EntrySize)
	for i, en := range entries {
		o := i * v3EntrySize
		idx[o] = en.kind
		idx[o+1] = en.plane
		binary.LittleEndian.PutUint32(idx[o+4:], en.col)
		binary.LittleEndian.PutUint64(idx[o+8:], uint64(en.sec.Offset))
		binary.LittleEndian.PutUint64(idx[o+16:], uint64(en.sec.Length))
		binary.LittleEndian.PutUint32(idx[o+24:], en.sec.CRC)
	}
	indexOff := aw.Offset()
	if _, err := bw.Write(idx); err != nil {
		return err
	}
	var tr [v3TrailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(indexOff))
	binary.LittleEndian.PutUint64(tr[8:], uint64(len(entries)))
	binary.LittleEndian.PutUint32(tr[16:], framing.Checksum(idx))
	copy(tr[24:], dbMagicV3End)
	if _, err := bw.Write(tr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// --- index parsing ---------------------------------------------------

// parseV3Index validates everything the O(index) open trusts: magic,
// trailer, index checksum, and per-entry invariants — 8-aligned offsets,
// exact tiling of the section area (no unindexed gaps), reserved fields
// zero, plane/column constraints, exactly one of each required metadata
// section. Section payloads themselves are NOT touched here.
func parseV3Index(data []byte) ([]v3sec, error) {
	size := int64(len(data))
	if size < int64(len(dbMagicV3Full))+v3TrailerSize {
		return nil, fmt.Errorf("expdb: v3 database truncated (%d bytes)", size)
	}
	if string(data[:len(dbMagicV3Full)]) != dbMagicV3Full {
		return nil, fmt.Errorf("expdb: bad v3 magic %q", data[:len(dbMagicV3Full)])
	}
	tr := data[size-v3TrailerSize:]
	if string(tr[24:32]) != dbMagicV3End {
		return nil, fmt.Errorf("expdb: v3 trailer magic missing (file truncated or corrupt)")
	}
	if binary.LittleEndian.Uint32(tr[20:24]) != 0 {
		return nil, fmt.Errorf("expdb: v3 trailer reserved bytes are nonzero")
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:8])
	count := binary.LittleEndian.Uint64(tr[8:16])
	indexCRC := binary.LittleEndian.Uint32(tr[16:20])
	if indexOff < uint64(len(dbMagicV3Full)) || indexOff%framing.Align != 0 || indexOff > uint64(size-v3TrailerSize) {
		return nil, fmt.Errorf("expdb: v3 index offset %d out of bounds", indexOff)
	}
	indexLen := uint64(size-v3TrailerSize) - indexOff
	if count > uint64(size)/v3EntrySize || count*v3EntrySize != indexLen {
		return nil, fmt.Errorf("expdb: v3 index length %d does not match %d entries", indexLen, count)
	}
	idx := data[indexOff : indexOff+indexLen]
	if framing.Checksum(idx) != indexCRC {
		return nil, fmt.Errorf("expdb: v3 index failed its CRC32C check")
	}

	secs := make([]v3sec, count)
	next := int64(len(dbMagicV3Full))
	var haveStrings, haveHeader, haveMetrics, haveTree, haveTraceMeta bool
	colSeen := map[uint64]bool{}
	traceSeen := map[uint32]bool{}
	pyrSeen := map[uint64]bool{}
	for i := range secs {
		en := idx[i*v3EntrySize:]
		s := v3sec{
			kind:   en[0],
			plane:  en[1],
			col:    binary.LittleEndian.Uint32(en[4:8]),
			off:    int64(binary.LittleEndian.Uint64(en[8:16])),
			length: int64(binary.LittleEndian.Uint64(en[16:24])),
			crc:    binary.LittleEndian.Uint32(en[24:28]),
		}
		if binary.LittleEndian.Uint16(en[2:4]) != 0 || binary.LittleEndian.Uint32(en[28:32]) != 0 {
			return nil, fmt.Errorf("expdb: v3 index entry %d has nonzero reserved bytes", i)
		}
		if s.length < 0 || s.off != next || s.off+framing.AlignUp(s.length) > int64(indexOff) {
			return nil, fmt.Errorf("expdb: v3 section %d (kind %d) does not tile the section area", i, s.kind)
		}
		next = s.off + framing.AlignUp(s.length)
		switch s.kind {
		case dbSecStrings, dbSecHeader, dbSecMetrics, dbSecTree:
			have := map[uint8]*bool{
				dbSecStrings: &haveStrings, dbSecHeader: &haveHeader,
				dbSecMetrics: &haveMetrics, dbSecTree: &haveTree,
			}[s.kind]
			if *have {
				return nil, &SectionError{Section: sectionName(s.kind), Err: fmt.Errorf("duplicate section")}
			}
			*have = true
			if s.plane != 0 || s.col != 0 {
				return nil, fmt.Errorf("expdb: v3 %s section has column fields set", sectionName(s.kind))
			}
		case dbSecProvenance:
			if s.plane != 0 || s.col != 0 {
				return nil, fmt.Errorf("expdb: v3 provenance section has column fields set")
			}
		case dbSecColumn:
			if s.plane > 2 {
				return nil, fmt.Errorf("expdb: v3 column section has bad plane %d", s.plane)
			}
			if s.length%8 != 0 {
				return nil, fmt.Errorf("expdb: v3 column section length %d is not a multiple of 8", s.length)
			}
			key := uint64(s.col)<<2 | uint64(s.plane)
			if colSeen[key] {
				return nil, fmt.Errorf("expdb: duplicate v3 column section (metric %d, %s)", s.col, v3PlaneName(s.plane))
			}
			colSeen[key] = true
		case dbSecTrace:
			if s.plane != 0 {
				return nil, fmt.Errorf("expdb: v3 trace section has nonzero plane %d", s.plane)
			}
			if s.length%16 != 0 {
				return nil, fmt.Errorf("expdb: v3 trace section length %d is not a multiple of 16", s.length)
			}
			if traceSeen[s.col] {
				return nil, fmt.Errorf("expdb: duplicate v3 trace section for rank %d", s.col)
			}
			traceSeen[s.col] = true
		case dbSecPyramid:
			if s.length%8 != 0 {
				return nil, fmt.Errorf("expdb: v3 pyramid section length %d is not a multiple of 8", s.length)
			}
			key := uint64(s.col)<<8 | uint64(s.plane)
			if pyrSeen[key] {
				return nil, fmt.Errorf("expdb: duplicate v3 pyramid section (rank %d, level %d)", s.col, s.plane)
			}
			pyrSeen[key] = true
		case dbSecTraceMeta:
			if haveTraceMeta {
				return nil, fmt.Errorf("expdb: duplicate v3 tracemeta section")
			}
			haveTraceMeta = true
			if s.plane != 0 || s.col != 0 {
				return nil, fmt.Errorf("expdb: v3 tracemeta section has column fields set")
			}
			if s.length%traceMetaEntrySize != 0 {
				return nil, fmt.Errorf("expdb: v3 tracemeta section length %d is not a multiple of %d", s.length, traceMetaEntrySize)
			}
		default:
			return nil, fmt.Errorf("expdb: unknown v3 section kind %d", s.kind)
		}
		secs[i] = s
	}
	if next != int64(indexOff) {
		return nil, fmt.Errorf("expdb: v3 sections leave an unindexed gap before the index")
	}
	for _, req := range []struct {
		ok   bool
		name string
	}{{haveStrings, "strings"}, {haveHeader, "header"}, {haveMetrics, "metrics"}, {haveTree, "tree"}} {
		if !req.ok {
			return nil, &SectionError{Section: req.name, Err: fmt.Errorf("section missing")}
		}
	}
	return secs, nil
}

// --- mapped database -------------------------------------------------

// MappedDB is a v3 experiment database opened zero-copy: the file is
// mapped (or read page-aligned, see mmapio) and column slabs are float64
// views straight into the mapping, installed in the metric store as
// borrowed columns. Open cost is O(index); the first Experiment call
// decodes the metadata and provenance and verifies every column section's
// checksum, each exactly once, with column damage degrading to a zeroed
// column plus an Experiment.Notes entry. Only the trace view waits for its
// first use.
//
// The mapping is strictly read-only. A writer that would touch a mapped
// column (a summary rewrite) hits the store's copy-on-write and scribbles
// a private heap copy instead. Close unmaps;
// the caller must guarantee no views into the mapping are dereferenced
// afterwards (the engine refcounts sessions for exactly this).
type MappedDB struct {
	mu     sync.Mutex
	region *mmapio.Region // nil when backed by caller-provided bytes
	data   []byte
	secs   []v3sec

	exp      *Experiment
	nodes    []*core.Node
	metaDone bool
	metaErr  error

	traceView *TraceView // built on first use

	reads map[string]int
}

// OpenMapped opens a v3 database file zero-copy. Only the fixed-width
// index is decoded — the call is O(index) regardless of database size.
// The returned database must be closed to release the mapping, and only
// once nothing reads its slabs anymore.
func OpenMapped(path string) (*MappedDB, error) {
	region, err := mmapio.Map(path)
	if err != nil {
		return nil, err
	}
	db, err := newMappedDB(region.Bytes())
	if err != nil {
		region.Close()
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	db.region = region
	return db, nil
}

func newMappedDB(data []byte) (*MappedDB, error) {
	secs, err := parseV3Index(data)
	if err != nil {
		return nil, err
	}
	return &MappedDB{data: data, secs: secs, reads: map[string]int{"index": 1}}, nil
}

// payload returns a section's logical bytes; span the padded bytes its CRC
// covers.
func (db *MappedDB) payload(s v3sec) []byte { return db.data[s.off : s.off+s.length] }
func (db *MappedDB) span(s v3sec) []byte {
	return db.data[s.off : s.off+framing.AlignUp(s.length)]
}

func (db *MappedDB) findSec(kind byte) (v3sec, bool) {
	for _, s := range db.secs {
		if s.kind == kind {
			return s, true
		}
	}
	return v3sec{}, false
}

// Mapped reports whether the database is backed by a true memory mapping.
func (db *MappedDB) Mapped() bool { return db.region != nil && db.region.Mapped() }

// MappedBytes exposes the raw mapped file bytes for residency probing
// (diag.Residency). Read-only.
func (db *MappedDB) MappedBytes() []byte { return db.data }

// SectionReads reports how many times each kind of section has been
// decoded or checksummed, keyed by name ("index", "strings", "header",
// "metrics", "tree", "column", "provenance", and the trace kinds) — the
// observable that a mapped open is O(index) and that Experiment reads
// every other section once. The map is a copy.
func (db *MappedDB) SectionReads() map[string]int {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make(map[string]int, len(db.reads))
	for k, v := range db.reads {
		out[k] = v
	}
	return out
}

// Close releases the mapping. Must not be called while any session still
// reads the database: borrowed slabs point into the mapping.
func (db *MappedDB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.region != nil {
		r := db.region
		db.region = nil
		return r.Close()
	}
	return nil
}

// Experiment decodes the metadata sections (strings, header, metrics,
// tree) on first call — verifying their checksums then — builds the tree
// with structural row ids, verifies every column section and installs it
// zero-copy as a borrowed store column, and decodes the provenance. A
// damaged column or provenance section degrades with a note; damaged or
// malformed metadata, or a provenance body that passes its checksum but
// does not decode, is an error.
func (db *MappedDB) Experiment() (*Experiment, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.experimentLocked()
}

func (db *MappedDB) experimentLocked() (*Experiment, error) {
	if db.metaDone {
		return db.exp, db.metaErr
	}
	db.metaDone = true
	db.exp, db.nodes, db.metaErr = db.decodeMeta()
	if db.metaErr == nil {
		db.metaErr = db.adoptLocked()
	}
	if db.metaErr != nil {
		db.exp = nil
	}
	return db.exp, db.metaErr
}

func (db *MappedDB) decodeMeta() (*Experiment, []*core.Node, error) {
	e := &Experiment{}
	var d decoder
	for id := dbSecStrings; id <= dbSecTree; id++ {
		s, _ := db.findSec(id)
		name := sectionName(id)
		if framing.ChecksumPadded(db.span(s)) != s.crc {
			return nil, nil, &SectionError{Section: name, Err: fmt.Errorf("section failed its CRC32C check")}
		}
		db.reads[name]++
		d.buf, d.pos = db.payload(s), 0
		err := d.section(id, e)
		if err == nil && id == dbSecTree && d.left() > 0 {
			err = fmt.Errorf("expdb: trailing bytes in tree section")
		}
		if err != nil {
			return nil, nil, &SectionError{Section: name, Err: err}
		}
	}
	if got := e.Tree.MetricStore().NumRows(); got != len(d.nodes)+1 {
		return nil, nil, &SectionError{Section: "tree", Err: fmt.Errorf("row count %d does not match %d nodes", got, len(d.nodes))}
	}
	return e, d.nodes, nil
}

// adoptLocked verifies each column section and installs it as a borrowed
// store column, and decodes the provenance. A column slab whose row count
// does not match the tree, or whose checksum fails, is left out (the
// column reads zero) with a note; so is a provenance section that fails
// its checksum, as the v2 reader drops it. A derived column's baked planes
// are verified like the rest but not adopted: the store evaluates its
// formula when the column is read.
func (db *MappedDB) adoptLocked() error {
	st, reg := db.exp.Tree.MetricStore(), db.exp.Tree.Reg
	nCols, rows := reg.Len(), len(db.nodes)+1
	note := func(format string, args ...any) {
		db.exp.Notes = append(db.exp.Notes, fmt.Sprintf(format, args...))
	}
	for _, s := range db.secs {
		switch s.kind {
		case dbSecColumn:
			if int64(s.col) >= int64(nCols) || int(s.length/8) != rows {
				note("column section (metric %d, %s) does not match the tree; its values were dropped", s.col, v3PlaneName(s.plane))
				continue
			}
			db.reads["column"]++
			if framing.ChecksumPadded(db.span(s)) != s.crc {
				note("column section (metric %d, %s) failed its CRC32C check; its values were dropped", s.col, v3PlaneName(s.plane))
				continue
			}
			if reg.ByID(int(s.col)).Kind != metric.Derived {
				st.AdoptCol(metric.Plane(s.plane), int(s.col), float64View(db.payload(s)), true)
			}
		case dbSecProvenance:
			if framing.ChecksumPadded(db.span(s)) != s.crc {
				note("provenance section failed its checksum; the quarantine record was dropped")
				continue
			}
			db.reads["provenance"]++
			d := decoder{buf: db.payload(s)}
			rep, err := d.provenance()
			if err != nil {
				return &SectionError{Section: "provenance", Err: err}
			}
			db.exp.Provenance = rep
		}
	}
	return nil
}

// VerifyAll decodes the experiment and builds the trace view — the one
// part Experiment leaves for its first use — for consumers that want every
// checksum checked up front. Column and trace damage still degrade
// (notes), so the returned error reflects only fatal problems.
func (db *MappedDB) VerifyAll() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.experimentLocked(); err != nil {
		return err
	}
	db.traceLocked()
	return nil
}

// --- eager reader ----------------------------------------------------

// readBinaryV3 is the stream (non-mapped) v3 decode behind Read: every
// checksum is verified up front, trace sections included, and the
// experiment is returned fully materialized. Column slabs still alias the
// input buffer (adopted copy-on-write), which is safe heap memory here — no
// mapping lifetime to manage.
func readBinaryV3(data []byte) (*Experiment, error) {
	db, err := newMappedDB(data)
	if err != nil {
		return nil, err
	}
	if err := db.VerifyAll(); err != nil {
		return nil, err
	}
	return db.exp, nil
}

// hostLittleEndian reports whether float64 slabs can be viewed in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float64View reinterprets little-endian float64 bytes as a []float64
// without copying when the platform allows it (little-endian host, 8-byte-
// aligned base — mmap regions and 8-aligned section offsets guarantee the
// latter); otherwise it falls back to a decoded copy.
func float64View(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
