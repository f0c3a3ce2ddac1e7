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
//     the Callers View roots it opened, its own Flat View, and an overlay
//     registry for session-private derived metrics. Any number of sessions may run over
//     one snapshot concurrently; each renders byte-identically to a session
//     that had the database to itself.
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
	"repro/internal/diag"
	"repro/internal/expdb"
	"repro/internal/ingest"
	"repro/internal/mmapio"
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
// a mapped database's columns verified before the snapshot is handed out),
// so sessions read them without a lock. One part is built on first use:
// the Callers View, which every session shares; a derived column's values
// are evaluated by its first read, which the store synchronizes.
type Snapshot struct {
	exp  *expdb.Experiment // never nil
	mdb  *expdb.MappedDB   // nil unless mapped (v3 zero-copy)
	path string            // the file Open opened, "" for one made in memory

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

	// callersOnce builds callers, the Callers View, on first use, and
	// callersPanic keeps a panic of that build; see CallersView.
	callersOnce  sync.Once
	callers      *core.CallersView
	callersPanic any
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
// XML, v1 and v2 files are decoded whole by expdb.Read. The verification
// reads the mapping inside mmapio.Guard, so a file that shrinks while it
// opens is an error naming it, and callers that cache opens (the catalog)
// are never unwound mid-open.
func Open(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [len(expdb.MagicV3)]byte
	n, _ := io.ReadFull(f, head[:])
	if string(head[:n]) == expdb.MagicV3 {
		var mdb *expdb.MappedDB
		var sn *Snapshot
		err := mmapio.Guard(func() (err error) {
			if mdb, err = expdb.OpenMapped(path); err != nil {
				return err
			}
			if sn, err = NewMappedSnapshot(mdb); err != nil {
				return fmt.Errorf("reading %s: %w", path, err)
			}
			return nil
		}, path)
		if err != nil {
			if mdb != nil {
				mdb.Close()
			}
			return nil, err
		}
		sn.path = path
		return sn, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	exp, err := expdb.Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	sn := NewSnapshot(exp)
	sn.path = path
	return sn, nil
}

// seal freezes the snapshot: the tree's constructor has already computed or
// adopted its presented planes, so only the base column boundary is
// recorded.
func (sn *Snapshot) seal() {
	sn.baseCols = sn.exp.Tree.Reg.Len()
	sn.refs.Store(1)
}

// CallersView returns the snapshot's Callers View, built by the first call
// and shared by every session after it. Its subtries are built by the
// first Expand of their root, whoever asks, and shared too. A panic in the
// build (a fault on a page of a mapped database file that shrank) is raised
// again by every call, so no caller takes a nil view.
func (sn *Snapshot) CallersView() *core.CallersView {
	sn.callersOnce.Do(func() {
		defer func() { sn.callersPanic = recover() }()
		sn.callers = core.BuildCallersView(sn.exp.Tree)
	})
	if sn.callersPanic != nil {
		panic(sn.callersPanic)
	}
	return sn.callers
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

// Path returns the file Open opened, "" for a snapshot made in memory.
func (sn *Snapshot) Path() string { return sn.path }

// Experiment returns the database the snapshot wraps.
func (sn *Snapshot) Experiment() *expdb.Experiment { return sn.exp }

// BaseColumns reports the number of sealed registry columns; session
// overlay columns are assigned IDs from this boundary up.
func (sn *Snapshot) BaseColumns() int { return sn.baseCols }

// Notes returns a copy of the database's degradation notes.
func (sn *Snapshot) Notes() []string {
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

// Residency probes how much of a mapped database is resident: a line for
// the whole file, then one per section kind. It is nil for a database that
// is not mapped.
func (sn *Snapshot) Residency() []string {
	data := sn.MappedBytes()
	if data == nil {
		return nil
	}
	spans := sn.SectionSpans()
	kinds := make([]diag.KindSpan, len(spans))
	for i, sp := range spans {
		kinds[i] = diag.KindSpan{Kind: sp.Kind, Data: sp.Data}
	}
	return append([]string{diag.ResidencyString(data)}, diag.ResidencyByKind(kinds)...)
}

// Provenance returns the database's quarantine report (nil when absent),
// decoded with the database.
func (sn *Snapshot) Provenance() *ingest.Report { return sn.exp.Provenance }

// FaultAll does nothing and returns nil: a snapshot's columns are verified
// when it opens.
//
// Deprecated: kept for the end-to-end benchmark's probe; nothing needs it.
func (sn *Snapshot) FaultAll() error { return nil }
