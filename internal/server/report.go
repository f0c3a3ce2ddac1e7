package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/imbalance"
	"repro/internal/mmapio"
	"repro/internal/report"
)

// Report route:
//
//	GET /v1/report?db=NAME[&baseline=NAME][&metric=M][&top=N]
//	              [&threshold=T][&bins=B]
//
// runs the unattended analysis of internal/report over a catalog entry
// (default: the server's default database) and returns the report JSON.
// B above imbalance.MaxBins is a 400: every bin is allocated.
// Both snapshots are acquired and refcounted for the whole build, so a
// concurrent republish or eviction never unmaps a database under the
// analysis; the report only reads the snapshots, so concurrent requests
// over one entry are safe. The build reads the databases inside one fault
// boundary: a file truncated under its mapping is a 500 naming it.
func (srv *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opt := report.Options{Metric: q.Get("metric")}
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
	if opt.Bins > imbalance.MaxBins {
		writeError(w, http.StatusBadRequest, "bad-request",
			fmt.Sprintf("report takes at most %d ?bins=", imbalance.MaxBins))
		return
	}

	snap, _, release := srv.acquire(w, q.Get("db"), "pass ?db=NAME")
	if snap == nil {
		return
	}
	defer release()
	paths := []string{snap.Path()}
	if base := q.Get("baseline"); base != "" {
		acq, _, err := srv.cat.Acquire(base)
		if err != nil {
			writeAcquireError(w, err)
			return
		}
		defer acq.Release()
		opt.Baseline = acq.Experiment()
		paths = append(paths, acq.Path())
	}

	var rep *report.Report
	err := mmapio.Guard(func() (err error) {
		rep, err = report.Build(snap.Experiment(), opt)
		return err
	}, paths...)
	if err != nil {
		writeReadError(w, err, "report-failed")
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
