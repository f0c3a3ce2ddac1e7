package server

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/trace"
)

// Trace and pick routes:
//
//	GET /v1/trace?db=NAME&w=&h=&t0=&t1=  time×rank grid JSON
//	GET /v1/pick?series=NAME&strategy=   choose a generation by data
//
// /v1/trace renders in O(w·h) over the database's zoom pyramid, so its
// cost is bounded by the requested grid, never by how many trace events
// the run captured. The handler holds a catalog reference for the whole
// render (never unmapped under it) and releases it before responding.

// traceResponse is the grid in parallel arrays (row-major, y*w+x). An
// empty cell has cpid 4294967295 (trace.EmptyCPID); labels maps every
// non-empty cpid shown to its scope label.
type traceResponse struct {
	T0      uint64            `json:"t0"`
	T1      uint64            `json:"t1"`
	W       int               `json:"w"`
	H       int               `json:"h"`
	Ranks   []int             `json:"ranks"`
	CPID    []uint32          `json:"cpid"`
	Depth   []uint16          `json:"depth"`
	Samples []uint16          `json:"samples"`
	Labels  map[string]string `json:"labels,omitempty"`
}

func (srv *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	intQ := func(name string, def int) (int, bool) {
		s := q.Get(name)
		if s == "" {
			return def, true
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	u64Q := func(name string) (uint64, bool) {
		s := q.Get(name)
		if s == "" {
			return 0, true
		}
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, false
		}
		return n, true
	}
	gw, ok1 := intQ("w", 256)
	gh, ok2 := intQ("h", 0)
	t0, ok3 := u64Q("t0")
	t1, ok4 := u64Q("t1")
	if !ok1 || !ok2 || !ok3 || !ok4 || gw <= 0 || gh < 0 {
		writeError(w, http.StatusBadRequest, "bad-request",
			"trace takes integer ?w= ?h= ?t0= ?t1=")
		return
	}

	snap, _, release := srv.acquire(w, q.Get("db"), "pass ?db=NAME")
	if snap == nil {
		return
	}
	defer release()

	tv, err := snap.Trace()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "trace-failed", err.Error())
		return
	}
	if tv == nil || len(tv.TraceRanks()) == 0 {
		writeError(w, http.StatusNotFound, "no-trace-data",
			"database has no trace sections (capture with hpcrun -trace, merge with hpcprof -traces -format v3)")
		return
	}
	g, err := trace.View(tv, t0, t1, nil, gw, gh)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-view", err.Error())
		return
	}

	resp := traceResponse{
		T0: g.T0, T1: g.T1, W: g.W, H: g.H, Ranks: g.Ranks,
		CPID:    make([]uint32, len(g.Cells)),
		Depth:   make([]uint16, len(g.Cells)),
		Samples: make([]uint16, len(g.Cells)),
		Labels:  map[string]string{},
	}
	for i, c := range g.Cells {
		resp.CPID[i] = c.CPID
		resp.Depth[i] = c.Depth
		resp.Samples[i] = c.Samples
		if !c.Empty() {
			id := strconv.FormatUint(uint64(c.CPID), 10)
			if _, done := resp.Labels[id]; !done {
				if n := snap.NodeAt(int(c.CPID)); n != nil {
					resp.Labels[id] = n.Label()
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// pickResponse names the generation a strategy chose.
type pickResponse struct {
	Name     string `json:"name"`
	Ts       int64  `json:"ts"`
	Strategy string `json:"strategy"`
}

func (srv *Server) handlePick(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seriesName := q.Get("series")
	if seriesName == "" {
		writeError(w, http.StatusBadRequest, "bad-request", "pick needs ?series=NAME")
		return
	}
	strategy := q.Get("strategy")
	key, err := srv.cat.Pick(seriesName, strategy)
	switch {
	case err == nil:
	case errors.Is(err, catalog.ErrNotFound):
		writeError(w, http.StatusNotFound, "unknown-series", err.Error())
		return
	case errors.Is(err, catalog.ErrBadStrategy):
		writeError(w, http.StatusBadRequest, "bad-strategy", err.Error())
		return
	default:
		writeAcquireError(w, err)
		return
	}
	if strategy == "" {
		strategy = "latest"
	}
	writeJSON(w, http.StatusOK, pickResponse{Name: key.String(), Ts: key.Ts, Strategy: strategy})
}
