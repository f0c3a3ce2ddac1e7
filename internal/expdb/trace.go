package expdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/correlate"
	"repro/internal/framing"
	"repro/internal/profile"
	"repro/internal/structfile"
	"repro/internal/trace"
)

// Trace storage in v3 databases.
//
// Write side: Experiment.TraceRanks supplies one streaming source per
// rank. WriteBinaryV3 streams each source's records into a trace section
// (kind 8, col = rank) through the aligned writer's incremental-CRC path —
// peak memory is one chunk buffer, never O(events) — and builds the rank's
// zoom pyramid in the same pass, emitting one pyramid section (kind 9) per
// level and a singleton tracemeta table (kind 10) describing every rank's
// geometry. Record call-path ids are rows of the database's tree: row 0 is
// the root, preorder node i is row i+1 — the same structural numbering the
// column slabs use, so a reader resolves a trace cell against the already
// decoded tree with an array index.
//
// Read side: MappedDB.Trace hands out zero-copy record and bucket views
// with the same lazy, memoized checksum discipline as columns. Damage to
// any trace, pyramid or tracemeta span degrades — the affected rank (or
// all traces) is dropped with an Experiment.Notes entry — and never fails
// the profile views.

// TraceRank is one rank's write-side trace source. Scan must replay
// exactly Count records in nondecreasing time order ending at LastT, with
// CPIDs already rewritten to tree rows.
type TraceRank struct {
	Rank  int
	Count uint64
	LastT uint64
	Scan  func(emit func(trace.Rec) error) error
}

// writeTraceSections streams every trace rank plus its pyramid and the
// tracemeta table. Ranks must be ascending and unique; zero-event ranks
// are skipped entirely (no sections, no meta entry).
func (e *Experiment) writeTraceSections(
	aw *framing.AlignedWriter,
	emit func(kind, plane uint8, col uint32, payload []byte) error,
	add func(kind, plane uint8, col uint32, sec framing.AlignedSection),
) error {
	if len(e.TraceRanks) == 0 {
		return nil
	}
	var metaBuf []byte
	prev := -1
	for _, tr := range e.TraceRanks {
		if tr.Rank <= prev {
			return fmt.Errorf("expdb: trace ranks not ascending (%d after %d)", tr.Rank, prev)
		}
		prev = tr.Rank
		if tr.Count == 0 {
			continue
		}
		if tr.Rank < 0 || int64(tr.Rank) > math.MaxUint32 {
			return fmt.Errorf("expdb: trace rank %d out of range", tr.Rank)
		}
		pb := trace.NewBuilder(tr.Rank, tr.Count, tr.LastT)
		sw := aw.Begin()
		buf := make([]byte, 0, 512*trace.RecSize)
		var n, lastT uint64
		err := tr.Scan(func(r trace.Rec) error {
			n++
			if n > tr.Count {
				return fmt.Errorf("expdb: rank %d trace emitted more than its declared %d records", tr.Rank, tr.Count)
			}
			if r.T < lastT {
				return fmt.Errorf("expdb: rank %d trace time regressed (%d after %d)", tr.Rank, r.T, lastT)
			}
			lastT = r.T
			if err := pb.Add(r); err != nil {
				return err
			}
			buf = trace.AppendRec(buf, r)
			if len(buf) == cap(buf) {
				_, werr := sw.Write(buf)
				buf = buf[:0]
				return werr
			}
			return nil
		})
		if err != nil {
			return err
		}
		if n != tr.Count {
			return fmt.Errorf("expdb: rank %d trace emitted %d of its declared %d records", tr.Rank, n, tr.Count)
		}
		if lastT != tr.LastT {
			return fmt.Errorf("expdb: rank %d trace ends at %d, declared %d", tr.Rank, lastT, tr.LastT)
		}
		if len(buf) > 0 {
			if _, err := sw.Write(buf); err != nil {
				return err
			}
		}
		sec, err := sw.Finish()
		if err != nil {
			return err
		}
		add(dbSecTrace, 0, uint32(tr.Rank), sec)

		meta, levels := pb.Finish()
		for l, lv := range levels {
			if err := emit(dbSecPyramid, uint8(l), uint32(tr.Rank), trace.EncodeLevel(lv)); err != nil {
				return err
			}
		}
		var en [traceMetaEntrySize]byte
		binary.LittleEndian.PutUint32(en[0:4], uint32(tr.Rank))
		binary.LittleEndian.PutUint32(en[4:8], meta.NBuckets)
		binary.LittleEndian.PutUint64(en[8:16], meta.Count)
		binary.LittleEndian.PutUint64(en[16:24], meta.LastT)
		binary.LittleEndian.PutUint64(en[24:32], meta.Width)
		metaBuf = append(metaBuf, en[:]...)
	}
	if len(metaBuf) > 0 {
		return emit(dbSecTraceMeta, 0, 0, metaBuf)
	}
	return nil
}

// TraceView is one mapped database's trace data, implementing
// trace.Source over zero-copy views of the pyramid and record sections.
// It is immutable once built; renders need no lock beyond the snapshot
// refcount that keeps the mapping alive.
type TraceView struct {
	ranks  []int
	metas  map[int]trace.Meta
	levels map[int][][]trace.Bucket
	recs   map[int][]trace.Rec
}

// TraceRanks lists the ranks with (undamaged) trace data, ascending.
func (tv *TraceView) TraceRanks() []int { return tv.ranks }

// TraceMeta returns the rank's trace geometry.
func (tv *TraceView) TraceMeta(rank int) (trace.Meta, bool) {
	m, ok := tv.metas[rank]
	return m, ok
}

// TraceLevel returns one zoom level of the rank's pyramid (0 = finest).
func (tv *TraceView) TraceLevel(rank, level int) []trace.Bucket {
	lv := tv.levels[rank]
	if level < 0 || level >= len(lv) {
		return nil
	}
	return lv[level]
}

// Records returns the rank's raw trace records, zero-copy.
func (tv *TraceView) Records(rank int) []trace.Rec { return tv.recs[rank] }

// Trace builds the database's trace view on first call, verifying every
// trace, pyramid and tracemeta checksum then (memoized — later calls are
// free). Damage degrades with a Notes entry and drops the affected rank
// (or, for tracemeta, all traces); profile views are never affected. A
// database without traces returns an empty view.
func (db *MappedDB) Trace() (*TraceView, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.experimentLocked(); err != nil {
		return nil, err
	}
	return db.traceLocked(), nil
}

// traceLocked builds the trace view on first call.
func (db *MappedDB) traceLocked() *TraceView {
	if db.traceView == nil {
		db.traceView = db.buildTraceViewLocked()
	}
	return db.traceView
}

func (db *MappedDB) buildTraceViewLocked() *TraceView {
	tv := &TraceView{
		metas:  map[int]trace.Meta{},
		levels: map[int][][]trace.Bucket{},
		recs:   map[int][]trace.Rec{},
	}
	note := func(format string, args ...any) {
		db.exp.Notes = append(db.exp.Notes, fmt.Sprintf(format, args...))
	}
	mi := -1
	for i, s := range db.secs {
		if s.kind == dbSecTraceMeta {
			mi = i
			break
		}
	}
	if mi < 0 {
		return tv
	}
	ms := db.secs[mi]
	db.reads["tracemeta"]++
	if framing.ChecksumPadded(db.span(ms)) != ms.crc {
		note("tracemeta section failed its CRC32C check; traces were dropped")
		return tv
	}
	// Index the rank-keyed sections once.
	traceSec := map[uint32]int{}
	pyrSecs := map[uint32]map[uint8]int{}
	for i, s := range db.secs {
		switch s.kind {
		case dbSecTrace:
			traceSec[s.col] = i
		case dbSecPyramid:
			if pyrSecs[s.col] == nil {
				pyrSecs[s.col] = map[uint8]int{}
			}
			pyrSecs[s.col][s.plane] = i
		}
	}
	payload := db.payload(ms)
	prev := int64(-1)
	for o := 0; o < len(payload); o += traceMetaEntrySize {
		en := payload[o : o+traceMetaEntrySize]
		m := trace.Meta{
			Rank:     int(binary.LittleEndian.Uint32(en[0:4])),
			NBuckets: binary.LittleEndian.Uint32(en[4:8]),
			Count:    binary.LittleEndian.Uint64(en[8:16]),
			LastT:    binary.LittleEndian.Uint64(en[16:24]),
			Width:    binary.LittleEndian.Uint64(en[24:32]),
		}
		if int64(m.Rank) <= prev {
			note("tracemeta entries out of order; remaining traces were dropped")
			return tv
		}
		prev = int64(m.Rank)
		if !db.adoptTraceRankLocked(tv, m, traceSec, pyrSecs) {
			note("trace data for rank %d is damaged or inconsistent; its trace was dropped", m.Rank)
		}
	}
	tv.ranks = make([]int, 0, len(tv.metas))
	for r := range tv.metas {
		tv.ranks = append(tv.ranks, r)
	}
	sort.Ints(tv.ranks)
	return tv
}

// adoptTraceRankLocked validates and adopts one rank's trace + pyramid
// sections; false means the rank must be dropped (caller notes it).
func (db *MappedDB) adoptTraceRankLocked(tv *TraceView, m trace.Meta, traceSec map[uint32]int, pyrSecs map[uint32]map[uint8]int) bool {
	// Geometry sanity: power-of-two base, positive width covering LastT.
	if m.Count == 0 || m.NBuckets == 0 || m.NBuckets > trace.MaxBaseBuckets ||
		m.NBuckets&(m.NBuckets-1) != 0 || m.Width == 0 || m.LastT/m.Width >= uint64(m.NBuckets) {
		return false
	}
	rank := uint32(m.Rank)
	ti, ok := traceSec[rank]
	if !ok {
		return false
	}
	ts := db.secs[ti]
	if uint64(ts.length) != m.Count*trace.RecSize {
		return false
	}
	if !db.verifyTraceSecLocked(ti, "trace") {
		return false
	}
	nLevels := m.Levels()
	levels := make([][]trace.Bucket, nLevels)
	for l := 0; l < nLevels; l++ {
		pi, ok := pyrSecs[rank][uint8(l)]
		if !ok {
			return false
		}
		ps := db.secs[pi]
		if int(ps.length/trace.BucketSize) != trace.LevelBuckets(m.NBuckets, l) {
			return false
		}
		if !db.verifyTraceSecLocked(pi, "pyramid") {
			return false
		}
		levels[l] = trace.BucketsFromBytes(db.payload(ps))
	}
	tv.metas[m.Rank] = m
	tv.levels[m.Rank] = levels
	tv.recs[m.Rank] = trace.RecsFromBytes(db.payload(ts))
	return true
}

// verifyTraceSecLocked checks one trace/pyramid section's CRC. The trace
// view is built once, so each section is checked at most once.
func (db *MappedDB) verifyTraceSecLocked(si int, kind string) bool {
	s := db.secs[si]
	db.reads[kind]++
	return framing.ChecksumPadded(db.span(s)) == s.crc
}

// NodeAt resolves a structural row id (a trace record's CPID) to its tree
// node: row 0 is the root, preorder node i is row i+1. Nil when out of
// range or the metadata failed to decode.
func (db *MappedDB) NodeAt(row int) *core.Node {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.experimentLocked(); err != nil {
		return nil
	}
	switch {
	case row == 0:
		return db.exp.Tree.Root
	case row >= 1 && row-1 < len(db.nodes):
		return db.nodes[row-1]
	}
	return nil
}

// PreorderRows maps every tree node to its structural row id, in exactly
// the order appendTree assigns them: root = 0, preorder node i = i+1.
// hpcprof's trace pass uses it to rewrite trace CPIDs to rows.
func (e *Experiment) PreorderRows() map[*core.Node]uint32 {
	out := map[*core.Node]uint32{e.Tree.Root: 0}
	row := uint32(1)
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		out[n] = row
		row++
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, c := range e.Tree.Root.Children {
		walk(c)
	}
	return out
}

// TraceRanksFromProfiles attaches in-memory trace captures to e: for each
// profile with a capture (thread 0 only — trace sections are keyed by
// rank), it resolves the trie against e's tree in lookup-only mode and
// installs a TraceRank whose Scan replays the capture with CPIDs
// rewritten to tree rows. The merge that built e.Tree must have included
// these profiles.
func TraceRanksFromProfiles(e *Experiment, doc *structfile.Doc, profs []*profile.Profile) error {
	rows := e.PreorderRows()
	seen := map[int]bool{}
	var trs []TraceRank
	for _, p := range profs {
		if p == nil || p.Trace == nil || p.Trace.Count() == 0 || p.Thread != 0 {
			continue
		}
		if seen[p.Rank] {
			return fmt.Errorf("expdb: duplicate trace capture for rank %d", p.Rank)
		}
		seen[p.Rank] = true
		frames, err := correlate.ResolveFrames(doc, p, e.Tree)
		if err != nil {
			return fmt.Errorf("expdb: rank %d: %w", p.Rank, err)
		}
		nodes := p.Trace.Nodes()
		remap := make([]uint32, len(nodes))
		for i, n := range nodes {
			fr := frames[n]
			if fr == nil {
				return fmt.Errorf("expdb: rank %d traced frame %d did not resolve against the tree", p.Rank, i)
			}
			row, ok := rows[fr]
			if !ok {
				return fmt.Errorf("expdb: rank %d traced frame %d resolved outside the tree", p.Rank, i)
			}
			remap[i] = row
		}
		td := p.Trace
		trs = append(trs, TraceRank{
			Rank:  p.Rank,
			Count: td.Count(),
			LastT: td.LastT(),
			Scan: func(emit func(trace.Rec) error) error {
				return td.Scan(func(r trace.Rec) error {
					r.CPID = remap[r.CPID]
					return emit(r)
				})
			},
		})
	}
	sort.Slice(trs, func(i, j int) bool { return trs[i].Rank < trs[j].Rank })
	e.TraceRanks = trs
	return nil
}

// SectionSpan is one mapped section's padded byte span, labeled by kind —
// the unit of the -residency probes' per-kind breakdown.
type SectionSpan struct {
	Kind string
	Data []byte
}

// SectionSpans lists every section's mapped span grouped under its kind
// name ("strings", "header", "metrics", "tree", "provenance", "column",
// "trace", "pyramid", "tracemeta").
func (db *MappedDB) SectionSpans() []SectionSpan {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]SectionSpan, 0, len(db.secs))
	for _, s := range db.secs {
		name := sectionName(s.kind)
		if s.kind == dbSecColumn {
			name = "column"
		}
		out = append(out, SectionSpan{Kind: name, Data: db.span(s)})
	}
	return out
}

var _ trace.Source = (*TraceView)(nil)
