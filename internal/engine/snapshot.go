// Package engine is the concurrency-safe presentation engine behind the
// paper's interactive analyses. It separates what the process-local viewer
// entangled:
//
//   - Snapshot: an opened experiment database — CCT, metric store, registry
//     — sealed immutable after load. The only post-seal mutation, first-touch
//     fault-in of a mapped database's metric columns, runs behind the
//     snapshot's write lock while every query holds the read lock, and each
//     fault bumps a generation counter so session caches can never serve
//     stale orders.
//
//   - Session: one user's presentation state over a shared snapshot — view
//     selection, expansion, zoom, flattening, sort, selection, highlights,
//     memoized query results, and an overlay registry for session-private
//     derived metrics. Any number of sessions may run over one snapshot
//     concurrently; each renders byte-identically to a session that had the
//     database to itself.
//
//   - Exec: the request/response command surface (the REPL grammar) thin
//     frontends speak — the interactive CLI and the HTTP server are both
//     line-in, text-out clients of the same engine.
package engine

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/ingest"
)

// Snapshot is an immutable view of a loaded experiment database, shared by
// any number of concurrent sessions.
//
// A snapshot wraps one of two things: an experiment decoded whole into
// memory (NewSnapshot), or a mapped v3 database (NewMappedSnapshot) whose
// experiment borrows its columns from the mapping.
//
// Immutability discipline: the tree's structure, its metric store and its
// registry are sealed at construction (presented metrics are computed and
// derived kernels applied before the snapshot is handed out). The one
// exception is the mapped database's column fault — a column's checksum is
// verified on first touch and a damaged column is zeroed — which rewrites
// shared metric slabs; it runs under mu's write lock, while every session
// query runs under the read lock, and each first-time fault advances gen so
// sessions invalidate their memoized orders, hot paths and overlay columns.
type Snapshot struct {
	exp *expdb.Experiment // never nil
	mdb *expdb.MappedDB   // nil unless mapped (v3 zero-copy)

	// refs counts owners: the creator (released by Close) plus one per
	// live Session. When the count hits zero a mapped snapshot unmaps its
	// file, so that must not happen while any session could still
	// dereference a borrowed slab.
	refs atomic.Int64

	// baseCols is the registry length at seal time: the boundary between
	// shared database columns (below) and session-overlay derived columns
	// (at or above).
	baseCols int

	// hookMu guards lastRelease: hooks appended by lifecycle owners (the
	// catalog) that run after the closer at final release.
	hookMu      sync.Mutex
	lastRelease []func()

	// mu orders queries (read lock) against fault-in (write lock).
	mu sync.RWMutex
	// gen counts fault-in events; sessions compare it to their last
	// observed value and drop caches on change. Written under mu; read
	// atomically so sessions can check it cheaply under the read lock.
	gen atomic.Uint64

	// faulted memoizes the outcome of mdb.NeedColumn per column, so each
	// column faults exactly once per snapshot; allFaulted short-circuits
	// FaultAll once every column has been offered. Guarded by mu.
	faulted    map[int]error
	allFaulted bool
}

// NewSnapshot seals an in-memory experiment. The experiment must be fully
// materialized (expdb.Read, expdb.New and expdb.FromMerge results are).
func NewSnapshot(exp *expdb.Experiment) *Snapshot {
	sn := &Snapshot{exp: exp}
	sn.seal()
	return sn
}

// NewMappedSnapshot seals a zero-copy mapped (v3) database. Metadata is
// decoded here (a snapshot cannot present without the tree); column slabs
// stay untouched in the mapping until sessions fault them, when the
// database verifies each section's checksum exactly once. The snapshot
// owns the mapping: it is unmapped when the last owner (creator + live
// sessions) releases the snapshot.
func NewMappedSnapshot(mdb *expdb.MappedDB) (*Snapshot, error) {
	exp, err := mdb.Experiment()
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{exp: exp, mdb: mdb}
	sn.seal()
	return sn, nil
}

// Open opens an experiment database file and seals it as a snapshot. v3
// databases are mapped zero-copy (O(index) at the storage layer, metadata
// decoded here); XML, v1 and v2 files are decoded whole by expdb.Read.
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [len(expdb.MagicV3)]byte
	n, _ := io.ReadFull(f, head[:])
	if string(head[:n]) == expdb.MagicV3 {
		mdb, err := expdb.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		sn, err := NewMappedSnapshot(mdb)
		if err != nil {
			mdb.Close()
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		return sn, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	exp, err := expdb.Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return NewSnapshot(exp), nil
}

// seal freezes the snapshot: presented metrics are computed (a no-op for
// database-loaded trees, whose finalize already ran) and the base column
// boundary recorded.
func (sn *Snapshot) seal() {
	sn.exp.Tree.EnsureComputed()
	sn.baseCols = sn.exp.Tree.Reg.Len()
	sn.faulted = map[int]error{}
	sn.refs.Store(1)
}

// Retain adds an owner. Sessions retain their snapshot at construction and
// release it on Close, so a mapped file is never unmapped under a live
// session.
func (sn *Snapshot) Retain() { sn.refs.Add(1) }

// Release drops one owner; the last release unmaps a mapped database's
// file, then runs any OnLastRelease hooks.
func (sn *Snapshot) Release() error {
	if sn.refs.Add(-1) != 0 {
		return nil
	}
	var err error
	if sn.mdb != nil {
		err = sn.mdb.Close()
	}
	sn.hookMu.Lock()
	hooks := sn.lastRelease
	sn.lastRelease = nil
	sn.hookMu.Unlock()
	for _, f := range hooks {
		f()
	}
	return err
}

// RefCount reports the current number of owners (creator + live sessions +
// any lifecycle manager references). It is a point-in-time observation for
// stats and tests, not a synchronization primitive.
func (sn *Snapshot) RefCount() int64 { return sn.refs.Load() }

// OnLastRelease registers f to run after the final Release — for a mapped
// database, after the file is actually unmapped. The catalog uses it to
// account resident bytes at true unmap time (an evicted snapshot stays
// mapped while sessions still retain it). Safe to call concurrently with
// Retain/Release; if the count already hit zero the hook never runs.
func (sn *Snapshot) OnLastRelease(f func()) {
	sn.hookMu.Lock()
	sn.lastRelease = append(sn.lastRelease, f)
	sn.hookMu.Unlock()
}

// Close releases the creator's reference. Call it once, when the frontend
// is done handing the snapshot to new sessions; live sessions keep the
// snapshot (and its mapping) alive until they close.
func (sn *Snapshot) Close() error { return sn.Release() }

// lazy reports whether the snapshot has columns that fault on first touch.
func (sn *Snapshot) lazy() bool { return sn.mdb != nil }

// Tree returns the shared tree. Callers must treat it as read-only.
func (sn *Snapshot) Tree() *core.Tree { return sn.exp.Tree }

// Experiment returns the database the snapshot wraps.
func (sn *Snapshot) Experiment() *expdb.Experiment { return sn.exp }

// BaseColumns reports the number of sealed registry columns; session
// overlay columns are assigned IDs from this boundary up.
func (sn *Snapshot) BaseColumns() int { return sn.baseCols }

// Generation returns the fault-in generation counter.
func (sn *Snapshot) Generation() uint64 { return sn.gen.Load() }

// Notes returns a copy of the database's degradation notes (fault-in may
// append to them; the copy is taken under the read lock).
func (sn *Snapshot) Notes() []string {
	sn.mu.RLock()
	defer sn.mu.RUnlock()
	return append([]string(nil), sn.exp.Notes...)
}

// MappedBytes returns the raw bytes of a mapped (v3) database for
// residency probing, nil for any other snapshot. Read-only.
func (sn *Snapshot) MappedBytes() []byte {
	if sn.mdb == nil {
		return nil
	}
	return sn.mdb.MappedBytes()
}

// Mapped reports whether the snapshot is backed by a true memory mapping.
func (sn *Snapshot) Mapped() bool { return sn.mdb != nil && sn.mdb.Mapped() }

// SectionSpans returns the mapped database's sections as named byte
// spans (nil for eager snapshots), for per-kind residency probes.
func (sn *Snapshot) SectionSpans() []expdb.SectionSpan {
	if sn.mdb == nil {
		return nil
	}
	return sn.mdb.SectionSpans()
}

// Provenance returns the database's quarantine report (nil when absent); a
// mapped database decodes it on the first call.
func (sn *Snapshot) Provenance() (*ingest.Report, error) {
	if sn.mdb == nil {
		return sn.exp.Provenance, nil
	}
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.mdb.Provenance()
}

// Trace returns the snapshot's trace view (time-dimension data), building
// and checksum-verifying it on first call. Only mapped (v3) snapshots
// carry traces; others return (nil, nil). The view is immutable and safe
// for concurrent renders; the snapshot's refcount keeps its mapping alive,
// so callers must hold a reference (sessions do) for as long as they use
// the view. Damage degrades into Notes, never an error here.
func (sn *Snapshot) Trace() (*expdb.TraceView, error) {
	if sn.mdb == nil {
		return nil, nil
	}
	// The database appends degradation notes to the shared Experiment under
	// its own lock; take the snapshot's write lock so Notes() readers (who
	// hold the read lock) never race the append.
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.mdb.Trace()
}

// NodeAt resolves a trace call-path id (structural tree row) to its node;
// nil for non-mapped snapshots or out-of-range rows.
func (sn *Snapshot) NodeAt(row int) *core.Node {
	if sn.mdb == nil {
		return nil
	}
	return sn.mdb.NodeAt(row)
}

// needColumn faults a mapped database's column exactly once across every
// session of the snapshot, under the write lock (queries are excluded while
// shared slabs may be rewritten). The recorded outcome is returned to every
// later requester. Each first-time fault advances the generation.
func (sn *Snapshot) needColumn(id int) error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.needColumnLocked(id)
}

func (sn *Snapshot) needColumnLocked(id int) error {
	if sn.mdb == nil {
		return nil
	}
	if err, ok := sn.faulted[id]; ok {
		return err
	}
	sn.gen.Add(1)
	err := sn.mdb.NeedColumn(id)
	sn.faulted[id] = err
	return err
}

// FaultAll faults every sealed column of a mapped database (a no-op for an
// in-memory experiment, which has nothing left to load). Sessions call it
// before building or expanding an aggregating view (Callers, Flat): those
// views copy every resident column of the scopes they aggregate, so their
// contents must not depend on which columns other sessions happened to
// fault first — materializing everything makes the aggregate a pure
// function of the database. The first error is returned, but every column
// is still offered.
func (sn *Snapshot) FaultAll() error {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.mdb == nil || sn.allFaulted {
		return nil
	}
	var first error
	for id := 0; id < sn.baseCols; id++ {
		if err := sn.needColumnLocked(id); err != nil && first == nil {
			first = err
		}
	}
	sn.allFaulted = true
	return first
}
