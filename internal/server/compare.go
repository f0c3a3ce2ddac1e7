package server

import (
	"net/http"
	"sync"

	"repro/internal/diff"
	"repro/internal/engine"
)

// The server implements engine.Catalog over its lifecycle catalog, so
// every session's `diff NAME` resolves against the same generations HTTP
// clients see. Lookups return retained snapshots (the engine releases
// them after the union is built), taken under the catalog lock so an
// eviction or republish can never unmap a snapshot mid-diff.

// AddSnapshot pins an already-open database under name, making it visible
// to GET /v1/catalog, POST /v1/compare and every session's diff command.
// Pinned snapshots sit outside the eviction/generation lifecycle — the
// static `-compare name=path` entries. Safe to call while serving.
func (srv *Server) AddSnapshot(name string, snap *engine.Snapshot) error {
	return srv.cat.Pin(name, snap)
}

// LookupSnapshot implements engine.Catalog: the returned snapshot is
// retained for the caller, who must Release it.
func (srv *Server) LookupSnapshot(name string) (*engine.Snapshot, error) {
	snap, _, err := srv.cat.Acquire(name)
	return snap, err
}

// SnapshotNames implements engine.Catalog.
func (srv *Server) SnapshotNames() []string { return srv.cat.Names() }

type catalogResponse struct {
	Databases []string `json:"databases"`
}

func (srv *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, catalogResponse{Databases: srv.cat.Names()})
}

// compareRequest asks for a diff between two catalog entries. An empty
// base means the database the server was started on.
type compareRequest struct {
	Base  string `json:"base,omitempty"`
	Other string `json:"other"`
	// Metric picks one compared metric for the report (default: first).
	Metric string `json:"metric,omitempty"`
	// Mode is the scaling expectation: auto, none, weak, strong.
	Mode string `json:"mode,omitempty"`
	// Threshold and Top shape the report (see diff.ReportOptions).
	Threshold float64 `json:"threshold,omitempty"`
	Top       int     `json:"top,omitempty"`
}

func (srv *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Other == "" {
		writeError(w, http.StatusBadRequest, "bad-request", `missing "other" database name`)
		return
	}
	mode := diff.ModeAuto
	if req.Mode != "" {
		m, err := diff.ParseMode(req.Mode)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad-request", err.Error())
			return
		}
		mode = m
	}
	// Acquire both inputs up front — the references pin their generations
	// (and mappings) for the duration of the union, against concurrent
	// eviction and republish.
	base := srv.snap
	if req.Base != "" {
		sn, _, err := srv.cat.Acquire(req.Base)
		if err != nil {
			writeAcquireError(w, err)
			return
		}
		base = sn
		defer sn.Release()
	} else if base == nil {
		writeError(w, http.StatusNotFound, "no-default-database",
			`server has no default database; pass "base"`)
		return
	}
	other, _, err := srv.cat.Acquire(req.Other)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	defer other.Release()

	res, err := srv.cachedDiff(req, mode, base, other)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "diff-failed", err.Error())
		return
	}
	rep, err := res.Report(diff.ReportOptions{Metric: req.Metric, Threshold: req.Threshold, Top: req.Top})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "report-failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// diffCacheKey identifies a union by the snapshot identities themselves —
// not names, which can be republished onto new generations. A cached
// result is fully materialized (the union copies every value), so it stays
// valid after its inputs are evicted or unmapped; the snapshot pointers
// serve only as identity.
type diffCacheKey struct {
	base, other *engine.Snapshot
	metric      string
	mode        diff.Mode
}

// diffCacheEntry computes its result at most once; concurrent requests
// for the same key share the wait instead of redundantly unioning.
type diffCacheEntry struct {
	once sync.Once
	res  *diff.Result
	err  error
}

// maxDiffCacheEntries bounds the cache; republishing rotates generations,
// and unions over dead generations would otherwise accumulate forever.
const maxDiffCacheEntries = 128

func (srv *Server) cachedDiff(req compareRequest, mode diff.Mode, base, other *engine.Snapshot) (*diff.Result, error) {
	var metrics []string
	if req.Metric != "" {
		metrics = []string{req.Metric}
	}
	key := diffCacheKey{base: base, other: other, metric: req.Metric, mode: mode}
	srv.diffMu.Lock()
	e, ok := srv.diffs[key]
	if !ok {
		if len(srv.diffs) >= maxDiffCacheEntries {
			srv.diffs = map[diffCacheKey]*diffCacheEntry{}
		}
		e = &diffCacheEntry{}
		srv.diffs[key] = e
	}
	srv.diffMu.Unlock()

	// Diff outside the lock: snapshots are read-only, and the once
	// collapses racing requests for one key into a single union.
	e.once.Do(func() {
		_, e.res, e.err = engine.DiffSnapshots(diff.Config{Metrics: metrics, Mode: mode},
			engine.DiffInput{Label: "A", Snap: base},
			engine.DiffInput{Label: "B", Snap: other})
	})
	if e.err != nil {
		// Failed unions don't deserve cache residency (the input may be
		// republished healthy); drop the entry.
		srv.diffMu.Lock()
		if srv.diffs[key] == e {
			delete(srv.diffs, key)
		}
		srv.diffMu.Unlock()
		return nil, e.err
	}
	return e.res, e.err
}
