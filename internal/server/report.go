package server

import (
	"net/http"
	"strconv"

	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/report"
)

// Report route:
//
//	GET /v1/report?db=NAME[&baseline=NAME][&metric=M][&top=N]
//	              [&threshold=T][&bins=B]
//
// runs the unattended analysis of internal/report over a catalog entry
// (default: the server's default database) and returns the report JSON.
// Both snapshots are acquired and refcounted for the whole build, so a
// concurrent republish or eviction never unmaps a database under the
// analysis; the report only reads the snapshots, so concurrent requests
// over one entry are safe.
func (srv *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opt := report.Options{Metric: q.Get("metric"), Jobs: srv.cfg.Jobs}
	ok := true
	intQ := func(name string, dst *int) {
		s := q.Get(name)
		if s == "" {
			return
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			ok = false
			return
		}
		*dst = n
	}
	intQ("top", &opt.Top)
	intQ("bins", &opt.Bins)
	if s := q.Get("threshold"); s != "" {
		t, err := strconv.ParseFloat(s, 64)
		if err != nil {
			ok = false
		}
		opt.Threshold = t
	}
	if !ok {
		writeError(w, http.StatusBadRequest, "bad-request",
			"report takes integer ?top= ?bins= and float ?threshold=")
		return
	}

	snap := srv.snap
	if db := q.Get("db"); db != "" {
		acq, _, err := srv.cat.Acquire(db)
		if err != nil {
			writeAcquireError(w, err)
			return
		}
		defer acq.Release()
		snap = acq
	} else if snap == nil {
		writeError(w, http.StatusNotFound, "no-default-database",
			"server has no default database; pass ?db=NAME")
		return
	}
	exp, err := reportExperiment(snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "report-failed", err.Error())
		return
	}
	if base := q.Get("baseline"); base != "" {
		acq, _, err := srv.cat.Acquire(base)
		if err != nil {
			writeAcquireError(w, err)
			return
		}
		defer acq.Release()
		opt.Baseline, err = reportExperiment(acq)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "report-failed", err.Error())
			return
		}
	}

	rep, err := report.Build(exp, opt)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "report-failed", err.Error())
		return
	}
	// Serve the report's own canonical rendering, not writeJSON's compact
	// encoding: the HTTP bytes must equal what hpcreport writes for the
	// same database and options.
	b, err := rep.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "report-failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// reportExperiment faults a snapshot's lazy columns (the analyses read
// every raw and summary value) and returns its experiment for the report
// builder.
func reportExperiment(sn *engine.Snapshot) (*expdb.Experiment, error) {
	if err := sn.FaultAll(); err != nil {
		return nil, err
	}
	return sn.Experiment(), nil
}
