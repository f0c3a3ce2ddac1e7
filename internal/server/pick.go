package server

import (
	"errors"
	"net/http"

	"repro/internal/catalog"
)

// pickResponse names the generation a strategy chose.
type pickResponse struct {
	Name     string `json:"name"`
	Ts       int64  `json:"ts"`
	Strategy string `json:"strategy"`
}

// handlePick serves GET /v1/pick?series=NAME&strategy=: the generation of
// a series the strategy (latest, most-samples, p50) chooses by its data.
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
