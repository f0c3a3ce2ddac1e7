package server

import (
	"net/http"

	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/mmapio"
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
	base, _, release := srv.acquire(w, req.Base, `pass "base"`)
	if base == nil {
		return
	}
	defer release()
	other, _, err := srv.cat.Acquire(req.Other)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	defer other.Release()

	var metrics []string
	if req.Metric != "" {
		metrics = []string{req.Metric}
	}
	// The union is built on the heap: only the diff reads the mappings.
	var res *diff.Result
	err = mmapio.Guard(func() (err error) {
		_, res, err = engine.DiffSnapshots(diff.Config{Metrics: metrics, Mode: mode},
			engine.DiffInput{Label: "A", Snap: base},
			engine.DiffInput{Label: "B", Snap: other})
		return err
	}, base.Path(), other.Path())
	if err != nil {
		writeReadError(w, err, "diff-failed")
		return
	}
	rep, err := res.Report(diff.ReportOptions{Metric: req.Metric, Threshold: req.Threshold, Top: req.Top})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "report-failed", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
