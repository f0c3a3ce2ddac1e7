package expdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/ingest"
	"repro/internal/intern"
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
// Open is O(index): only the trailer and index are decoded and validated —
// metadata sections fault in on first Experiment() access and each column
// section's CRC32C (over its padded span, so every file byte is covered by
// exactly one check) is verified memoized on first touch. Row ids are
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
// v3 open never recomputes metrics or re-applies derived kernels.
func (e *Experiment) WriteBinaryV3(w io.Writer) error {
	// The slabs persist the presented planes verbatim, so they must be
	// final before the walk: compute Equations 1/2 if nothing has, and
	// (re-)apply derived formulas — both no-ops on a finalized tree.
	e.Tree.EnsureComputed()
	if err := e.Tree.ApplyDerivedTree(); err != nil {
		return err
	}
	tab := newStrTable()
	e.internStrings(tab)

	var strs bytes.Buffer
	bufU(&strs, uint64(len(tab.vals)))
	for _, s := range tab.vals {
		bufS(&strs, s)
	}
	var hdr bytes.Buffer
	bufU(&hdr, tab.ref(e.Program))
	bufU(&hdr, uint64(e.NRanks))
	metricsPayload, err := e.encodeMetrics(tab)
	if err != nil {
		return err
	}
	treePayload, nodes := e.encodeTreeV3(tab)

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
	for _, s := range []struct {
		kind    byte
		payload []byte
	}{
		{dbSecStrings, strs.Bytes()},
		{dbSecHeader, hdr.Bytes()},
		{dbSecMetrics, metricsPayload},
		{dbSecTree, treePayload},
	} {
		if err := emit(s.kind, 0, 0, s.payload); err != nil {
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

// encodeTreeV3 emits the preorder node stream without any metric values
// (they live in the column slabs) and returns the nodes in preorder, which
// fixes the file's row numbering.
func (e *Experiment) encodeTreeV3(tab *strTable) ([]byte, []*core.Node) {
	var b bytes.Buffer
	var nodes []*core.Node
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		nodes = append(nodes, n)
		flags := uint64(0)
		if n.NoSource {
			flags |= 1
		}
		for _, v := range []uint64{
			uint64(n.Kind),
			tab.refSym(n.Name), tab.refSym(n.File), uint64(n.Line), n.ID,
			uint64(n.CallLine), tab.refSym(n.CallFile), tab.refSym(n.Mod),
			flags,
		} {
			bufU(&b, v)
		}
		bufU(&b, uint64(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	bufU(&b, uint64(len(e.Tree.Root.Children)))
	for _, c := range e.Tree.Root.Children {
		walk(c)
	}
	return b.Bytes(), nodes
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
// borrowed columns. Open cost is O(index); metadata decodes on the first
// Experiment call; each column section's checksum is verified exactly once,
// on first touch (NeedColumn), with damage degrading to a zeroed column
// plus an Experiment.Notes entry.
//
// The mapping is strictly read-only. Writers that would touch a mapped
// column (a diff Recompute, a summary rewrite) hit the store's
// copy-on-write and scribble a private heap copy instead. Close unmaps;
// the caller must guarantee no views into the mapping are dereferenced
// afterwards (the engine refcounts sessions for exactly this).
type MappedDB struct {
	mu     sync.Mutex
	region *mmapio.Region // nil when backed by caller-provided bytes
	data   []byte
	secs   []v3sec
	// verified memoizes per-section CRC outcomes for lazily checked
	// sections (columns, provenance), by index into secs.
	verified map[int]error

	exp      *Experiment
	nodes    []*core.Node
	rows     int
	metaDone bool
	metaErr  error

	colSecs map[int][]int // metric column id -> indexes into secs

	provDone bool
	provErr  error

	traceDone bool
	traceView *TraceView

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
	db := &MappedDB{
		data:     data,
		secs:     secs,
		verified: map[int]error{},
		colSecs:  map[int][]int{},
		reads:    map[string]int{"index": 1},
	}
	for i, s := range secs {
		if s.kind == dbSecColumn {
			db.colSecs[int(s.col)] = append(db.colSecs[int(s.col)], i)
		}
	}
	return db, nil
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
// "metrics", "tree", "column", "provenance") — the observable that a
// mapped open is O(index) and column checks are memoized. The map is a
// copy.
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
// with structural row ids, and installs every column slab zero-copy as a
// borrowed store column. Column checksums are NOT verified here; they are
// memoized per section on first touch (NeedColumn/VerifyAll).
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
	if db.metaErr != nil {
		db.exp = nil
		return nil, db.metaErr
	}
	db.rows = len(db.nodes) + 1
	db.adoptColumnsLocked()
	return db.exp, nil
}

func (db *MappedDB) decodeMeta() (*Experiment, []*core.Node, error) {
	secErr := func(name string, err error) error { return &SectionError{Section: name, Err: err} }
	crcErr := func(name string) error {
		return secErr(name, fmt.Errorf("section failed its CRC32C check"))
	}
	reader := func(s v3sec) (*bufio.Reader, func() int64) {
		bound := s.length
		return bufio.NewReader(bytes.NewReader(db.payload(s))), func() int64 { return bound }
	}

	// Strings.
	s, _ := db.findSec(dbSecStrings)
	if framing.ChecksumPadded(db.span(s)) != s.crc {
		return nil, nil, crcErr("strings")
	}
	db.reads["strings"]++
	pr, bound := reader(s)
	nStr, err := getU(pr)
	if err != nil {
		return nil, nil, secErr("strings", noEOF(err))
	}
	if int64(nStr) > bound() {
		return nil, nil, secErr("strings", fmt.Errorf("implausible string count %d", nStr))
	}
	syms, err := readStrTable(pr, nStr, bound)
	if err != nil {
		return nil, nil, secErr("strings", err)
	}

	// Header.
	e := &Experiment{}
	s, _ = db.findSec(dbSecHeader)
	if framing.ChecksumPadded(db.span(s)) != s.crc {
		return nil, nil, crcErr("header")
	}
	db.reads["header"]++
	pr, _ = reader(s)
	progRef, err := getU(pr)
	if err != nil {
		return nil, nil, secErr("header", noEOF(err))
	}
	if progRef >= uint64(len(syms)) {
		return nil, nil, secErr("header", fmt.Errorf("string ref %d out of range", progRef))
	}
	e.Program = syms[progRef].String()
	ranks, err := getU(pr)
	if err != nil {
		return nil, nil, secErr("header", noEOF(err))
	}
	if ranks > math.MaxInt32 {
		return nil, nil, secErr("header", fmt.Errorf("implausible rank count %d", ranks))
	}
	e.NRanks = int(ranks)

	// Metrics.
	s, _ = db.findSec(dbSecMetrics)
	if framing.ChecksumPadded(db.span(s)) != s.crc {
		return nil, nil, crcErr("metrics")
	}
	db.reads["metrics"]++
	pr, bound = reader(s)
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
	descs, err := readMetricDescs(pr, getS, bound)
	if err != nil {
		return nil, nil, secErr("metrics", err)
	}
	reg, err := rebuildRegistry(descs)
	if err != nil {
		return nil, nil, secErr("metrics", err)
	}

	// Tree.
	s, _ = db.findSec(dbSecTree)
	if framing.ChecksumPadded(db.span(s)) != s.crc {
		return nil, nil, crcErr("tree")
	}
	db.reads["tree"]++
	e.Tree = core.NewTree(e.Program, reg)
	nodes, err := readTreeSectionV3(db.payload(s), e, syms)
	if err != nil {
		return nil, nil, secErr("tree", err)
	}
	if got := e.Tree.MetricStore().NumRows(); got != len(nodes)+1 {
		return nil, nil, secErr("tree", fmt.Errorf("row count %d does not match %d nodes", got, len(nodes)))
	}
	// Presented planes are baked in the column slabs: recomputation must
	// not overwrite (and copy) them.
	e.Tree.MarkComputed()
	return e, nodes, nil
}

// adoptColumnsLocked installs every structurally valid column slab as a
// borrowed store column. A slab whose row count does not match the tree
// degrades immediately (note + skip); checksums wait for first touch.
func (db *MappedDB) adoptColumnsLocked() {
	st := db.exp.Tree.MetricStore()
	nCols := db.exp.Tree.Reg.Len()
	for i, s := range db.secs {
		if s.kind != dbSecColumn {
			continue
		}
		if int64(s.col) >= int64(nCols) || int(s.length/8) != db.rows {
			db.verified[i] = fmt.Errorf("expdb: column section (metric %d, %s) is malformed", s.col, v3PlaneName(s.plane))
			db.exp.Notes = append(db.exp.Notes, fmt.Sprintf(
				"column section (metric %d, %s) does not match the tree; its values were dropped", s.col, v3PlaneName(s.plane)))
			continue
		}
		st.AdoptCol(metric.Plane(s.plane), int(s.col), float64View(db.payload(s)), true)
	}
}

// NeedColumn verifies (once) the checksums of every section backing metric
// column id. Damage degrades: the column is detached — it reads as zero —
// and the drop is recorded in Experiment.Notes, never an error or a fault.
// This is the engine snapshot's column faulter for mapped databases.
func (db *MappedDB) NeedColumn(id int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.experimentLocked(); err != nil {
		return err
	}
	for _, si := range db.colSecs[id] {
		db.verifyColLocked(si)
	}
	return nil
}

func (db *MappedDB) verifyColLocked(si int) {
	if _, done := db.verified[si]; done {
		return
	}
	s := db.secs[si]
	db.reads["column"]++
	if framing.ChecksumPadded(db.span(s)) != s.crc {
		err := fmt.Errorf("expdb: column section (metric %d, %s) failed its CRC32C check", s.col, v3PlaneName(s.plane))
		db.verified[si] = err
		db.exp.Tree.MetricStore().DetachCol(metric.Plane(s.plane), int(s.col))
		db.exp.Notes = append(db.exp.Notes, fmt.Sprintf(
			"column section (metric %d, %s) failed its CRC32C check; its values were dropped", s.col, v3PlaneName(s.plane)))
		return
	}
	db.verified[si] = nil
}

// Provenance decodes the provenance section on first call (nil when absent
// or dropped after checksum damage, as the v2 reader drops it).
func (db *MappedDB) Provenance() (*ingest.Report, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.experimentLocked(); err != nil {
		return nil, err
	}
	if err := db.loadProvenanceLocked(); err != nil {
		return nil, err
	}
	return db.exp.Provenance, nil
}

func (db *MappedDB) loadProvenanceLocked() error {
	if db.provDone {
		return db.provErr
	}
	db.provDone = true
	for _, s := range db.secs {
		if s.kind != dbSecProvenance {
			continue
		}
		if framing.ChecksumPadded(db.span(s)) != s.crc {
			db.exp.Notes = append(db.exp.Notes, "provenance section failed its checksum; the quarantine record was dropped")
			continue
		}
		db.reads["provenance"]++
		bound := s.length
		pr := bufio.NewReader(bytes.NewReader(db.payload(s)))
		rep, err := readProvenanceSection(pr, func() int64 { return bound })
		if err != nil {
			db.provErr = &SectionError{Section: "provenance", Err: err}
			return db.provErr
		}
		db.exp.Provenance = rep
	}
	return nil
}

// VerifyAll checks every section checksum and decodes all lazily deferred
// state, for consumers that will not fault columns themselves. Column
// damage still degrades (notes), so the returned error reflects only fatal
// metadata problems.
func (db *MappedDB) VerifyAll() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.experimentLocked(); err != nil {
		return err
	}
	for si, s := range db.secs {
		if s.kind == dbSecColumn {
			db.verifyColLocked(si)
		}
	}
	return db.loadProvenanceLocked()
}

// --- eager reader ----------------------------------------------------

// readBinaryV3 is the stream (non-mapped) v3 decode behind Read: the whole
// input is buffered, every checksum is verified up front, and the
// experiment is returned fully materialized.
// Column slabs still alias the read buffer (adopted copy-on-write), which
// is safe heap memory here — no mapping lifetime to manage. size is what
// framing.SizeOf measured (-1: unknown) and the buffer is made that long at
// once: grown by doubling, it left as much garbage again as the database is
// long, in blocks so large that whether one died before or after a
// collection began marking moved the next heap goal, and the process's peak
// RSS, by tens of megabytes from one run to the next.
func readBinaryV3(br *bufio.Reader, size int64) (*Experiment, error) {
	var buf bytes.Buffer
	if size > 0 && size <= 1<<30 {
		buf = *bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	}
	if _, err := buf.ReadFrom(br); err != nil {
		return nil, fmt.Errorf("expdb: %w", err)
	}
	db, err := newMappedDB(buf.Bytes())
	if err != nil {
		return nil, err
	}
	exp, err := db.Experiment()
	if err != nil {
		return nil, err
	}
	if err := db.VerifyAll(); err != nil {
		return nil, err
	}
	// Adopt trace sections too: damage there degrades the open with notes
	// (traces dropped) exactly as the mapped path does, instead of passing
	// silently through an eager read.
	if _, err := db.Trace(); err != nil {
		return nil, err
	}
	return exp, nil
}

// minNodeBytes is the least a scope takes in the tree section: nine header
// varints and a child count.
const minNodeBytes = 10

// treeDecoder reads the v3 tree section straight from its (mapped) bytes.
type treeDecoder struct {
	buf  []byte
	pos  int
	syms []intern.Sym
	// nodes collects the scopes in preorder.
	nodes []*core.Node
	// pending counts the scopes open sibling lists have announced but not
	// started. Every one of them needs minNodeBytes of what is left, which
	// is the bound on any count read from the section — and on what a
	// lying count can make the decoder allocate.
	pending uint64
	// seen is the scratch set behind the duplicate-key check of wide lists.
	seen map[core.Key]struct{}
}

func (d *treeDecoder) uvarint() (uint64, error) {
	if d.pos < len(d.buf) && d.buf[d.pos] < 0x80 {
		d.pos++
		return uint64(d.buf[d.pos-1]), nil
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, fmt.Errorf("expdb: varint overflows a 64-bit integer")
	}
	d.pos += n
	return v, nil
}

func (d *treeDecoder) sym() (intern.Sym, error) {
	i, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if i >= uint64(len(d.syms)) {
		return 0, fmt.Errorf("expdb: string ref %d out of range", i)
	}
	return d.syms[i], nil
}

// children reads parent's sibling list, count scopes with their subtrees.
func (d *treeDecoder) children(parent *core.Node, count uint64, what string, depth int) error {
	if count == 0 {
		return nil
	}
	if room := uint64(len(d.buf)-d.pos) / minNodeBytes; count > room || d.pending > room-count {
		return fmt.Errorf("expdb: implausible %s count %d", what, count)
	}
	if depth > 100000 {
		return fmt.Errorf("expdb: tree too deep")
	}
	d.pending += count
	parent.GrowChildren(int(count))
	for ; count > 0; count-- {
		d.pending--
		kindU, err := d.uvarint()
		if err != nil {
			return err
		}
		if kindU == uint64(core.KindRoot) || kindU > uint64(core.KindCallSite) {
			return fmt.Errorf("expdb: bad node kind %d", kindU)
		}
		key := core.Key{Kind: core.Kind(kindU)}
		if key.Name, err = d.sym(); err != nil {
			return err
		}
		if key.File, err = d.sym(); err != nil {
			return err
		}
		line, err := d.uvarint()
		if err != nil {
			return err
		}
		key.Line = int(line)
		if key.ID, err = d.uvarint(); err != nil {
			return err
		}
		n := parent.AppendChild(key)
		d.nodes = append(d.nodes, n)
		callLine, err := d.uvarint()
		if err != nil {
			return err
		}
		n.CallLine = int(callLine)
		if n.CallFile, err = d.sym(); err != nil {
			return err
		}
		if n.Mod, err = d.sym(); err != nil {
			return err
		}
		flags, err := d.uvarint()
		if err != nil {
			return err
		}
		n.NoSource = flags&1 != 0
		nc, err := d.uvarint()
		if err != nil {
			return err
		}
		if err := d.children(n, nc, "child", depth+1); err != nil {
			return err
		}
	}
	return d.uniqueKeys(parent.Children)
}

// uniqueKeys rejects a sibling list in which two scopes share a key: Child
// would find only one of them, and a writer would merge them.
func (d *treeDecoder) uniqueKeys(ns []*core.Node) error {
	if len(ns) <= 8 { // a few 32-byte compares beat hashing
		for i, a := range ns {
			for _, b := range ns[:i] {
				if a.Key == b.Key {
					return fmt.Errorf("expdb: duplicate sibling %s", a.Label())
				}
			}
		}
		return nil
	}
	if d.seen == nil {
		d.seen = make(map[core.Key]struct{}, 2*len(ns))
	}
	clear(d.seen)
	for _, a := range ns {
		if _, dup := d.seen[a.Key]; dup {
			return fmt.Errorf("expdb: duplicate sibling %s", a.Label())
		}
		d.seen[a.Key] = struct{}{}
	}
	return nil
}

// readTreeSectionV3 parses the v3 tree section: the v2 preorder node
// stream minus the inline base-value lists (v3 stores values in column
// slabs). Returned nodes are in preorder; their arena rows are 1..n.
func readTreeSectionV3(sec []byte, e *Experiment, syms []intern.Sym) ([]*core.Node, error) {
	// The section is the root count and ten varints per scope, and every
	// varint ends in its only byte below 0x80: counting those sizes the
	// arena and the preorder list exactly (a malformed section at most
	// over-reserves, to one scope per minNodeBytes).
	ends := 0
	for _, b := range sec {
		if b < 0x80 {
			ends++
		}
	}
	scopes := max(ends-1, 0) / minNodeBytes
	e.Tree.Reserve(scopes)
	d := treeDecoder{buf: sec, syms: syms, nodes: make([]*core.Node, 0, scopes)}
	nRoots, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if err := d.children(e.Tree.Root, nRoots, "root", 0); err != nil {
		return nil, err
	}
	if d.pos != len(sec) {
		return nil, fmt.Errorf("expdb: trailing bytes in tree section")
	}
	return d.nodes, nil
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
