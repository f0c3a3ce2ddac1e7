// Package engine is the concurrency-safe presentation engine behind the
// paper's interactive analyses. It separates what the process-local viewer
// entangled:
//
//   - Snapshot: an opened experiment database — CCT, metric store, registry
//     — immutable from construction on: a mapped database's columns are
//     verified when it opens, so sessions read the shared slabs without a
//     lock.
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
	"weak"

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
// registry are sealed at construction (presented metrics are computed,
// derived kernels applied and a mapped database's columns verified before
// the snapshot is handed out), so sessions read them without a lock. What
// may still change is the trace view, built on first use, and the notes
// its build appends.
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

	// mu guards the notes a lazy trace-view build appends.
	mu sync.Mutex

	// flat is the Flat View, held weakly: sessions that present it keep it
	// alive, and once none does the collector takes it back. flatMu guards
	// the pointer and makes concurrent first builds wait for one another.
	flatMu sync.Mutex
	flat   weak.Pointer[core.FlatView]
}

// NewSnapshot seals an in-memory experiment. The experiment must be fully
// materialized (expdb.Read, expdb.New and expdb.FromMerge results are).
func NewSnapshot(exp *expdb.Experiment) *Snapshot {
	sn := &Snapshot{exp: exp}
	sn.seal()
	return sn
}

// NewMappedSnapshot seals a zero-copy mapped (v3) database. Its experiment
// is decoded here: the metadata, the provenance and every column section's
// checksum, once each, with damaged columns zeroed and noted. The slabs
// stay in the mapping, read in place by every session. The snapshot
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
// databases are mapped zero-copy and verified here (see NewMappedSnapshot);
// XML, v1 and v2 files are decoded whole by expdb.Read.
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

// Tree returns the shared tree. Callers must treat it as read-only.
func (sn *Snapshot) Tree() *core.Tree { return sn.exp.Tree }

// Experiment returns the database the snapshot wraps.
func (sn *Snapshot) Experiment() *expdb.Experiment { return sn.exp }

// BaseColumns reports the number of sealed registry columns; session
// overlay columns are assigned IDs from this boundary up.
func (sn *Snapshot) BaseColumns() int { return sn.baseCols }

// Notes returns a copy of the database's degradation notes (a trace-view
// build may append to them).
func (sn *Snapshot) Notes() []string {
	sn.mu.Lock()
	defer sn.mu.Unlock()
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

// Provenance returns the database's quarantine report (nil when absent).
// The error is always nil: the report was decoded with the database.
func (sn *Snapshot) Provenance() (*ingest.Report, error) { return sn.exp.Provenance, nil }

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
	// The build appends degradation notes to the shared Experiment under
	// the database's lock; take mu too so Notes() never races the append.
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

// FaultAll does nothing and returns nil: a snapshot's columns are verified
// when it opens.
//
// Deprecated: kept for the end-to-end benchmark's probe; nothing needs it.
func (sn *Snapshot) FaultAll() error { return nil }

// flatView returns the Flat View of the snapshot's tree: the one some
// session still holds, or a new build when none does. The view is shared and
// read-only; a caller keeps it alive by holding the pointer.
func (sn *Snapshot) flatView() *core.FlatView {
	sn.flatMu.Lock()
	defer sn.flatMu.Unlock()
	if v := sn.flat.Value(); v != nil {
		return v
	}
	v := core.BuildFlatView(sn.exp.Tree)
	sn.flat = weak.Make(v)
	return v
}
