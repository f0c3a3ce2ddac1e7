// Package server is the HTTP/JSON frontend over internal/engine and
// internal/catalog: a multi-tenant catalog of experiment databases serving
// any number of concurrent presentation sessions, each keyed by an
// unguessable token.
//
// The server is deliberately thin — it owns transport concerns only
// (tokens, per-session serialization, JSON framing, admission control,
// deadlines, shutdown); every presentation capability is the engine's and
// every lifecycle capability the catalog's. A session speaks the same
// command grammar as `hpcviewer -interactive` (see engine.Help), so a
// command stream sent over HTTP renders byte-identically to the same
// stream typed into the CLI.
//
// API:
//
//	GET    /healthz                    liveness probe ("ok")
//	GET    /readyz                     readiness: 503 while draining
//	GET    /v1/stats                   sessions, shed/panic counters, catalog stats
//	GET    /v1/info                    default database shape: node/metric counts, notes
//	GET    /v1/catalog                 databases available for sessions and diffing
//	GET    /v1/trace?db=&w=&h=&t0=&t1=  time×rank trace grid JSON (O(w·h) render)
//	GET    /v1/pick?series=&strategy=  choose a generation (latest|most-samples|p50)
//	POST   /v1/ingest?service=&run=&ts=  publish a database (body = db bytes)
//	POST   /v1/compare                 {"other": NAME, ...} -> diff report (see compare.go)
//	POST   /v1/sessions                {"db": NAME?} -> {"token", "db"}
//	POST   /v1/sessions/{token}/exec   {"line": "..."} -> {"output", "error", "quit"}
//	DELETE /v1/sessions/{token}        close and forget the session
//
// Robustness contract: request bodies are size-capped (oversized -> 413),
// load beyond the bounded admission queue is shed with 429/503 and a
// Retry-After header instead of queueing unboundedly, a request that
// outlives its deadline kills its session (504) rather than wedging a
// worker, and a panic inside one session's command kills that session
// (500, counted in /v1/stats) — never the process. Degraded responses
// carry a typed JSON error body: {"error":{"type","message"}}.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/prog"
)

// Config shapes a server beyond its default snapshot.
type Config struct {
	// Source, when non-nil, backs the src command of every session.
	Source *prog.Program
	// Jobs is ignored.
	//
	// Deprecated: sessions size their worker pools from GOMAXPROCS.
	Jobs int
	// Catalog is the lifecycle catalog behind session creation, diffing
	// and ingest. Nil gets a private pin-only catalog (no storage dir).
	Catalog *catalog.Catalog

	// MaxInflight bounds concurrently executing heavy requests (session
	// create/exec/compare/ingest); further requests wait in a queue of at
	// most MaxQueue before being shed with 429/503. Zero values take the
	// defaults (64 inflight, 256 queued, 2s queue wait).
	MaxInflight  int
	MaxQueue     int
	QueueTimeout time.Duration
	// ExecTimeout is the per-request deadline for session commands; a
	// command still running when it expires gets its session killed (the
	// engine cancels in-flight expansion) and the request a 504. Zero
	// takes the default 30s; negative disables.
	ExecTimeout time.Duration
	// MaxBodyBytes caps control-plane POST bodies (exec, compare, session
	// create); MaxIngestBytes caps ingest payloads. Defaults 1 MiB / 1 GiB.
	MaxBodyBytes   int64
	MaxIngestBytes int64
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 256
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.ExecTimeout == 0 {
		cfg.ExecTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxIngestBytes <= 0 {
		cfg.MaxIngestBytes = 1 << 30
	}
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.New(catalog.Config{})
	}
	return cfg
}

// Server shares a catalog of snapshots across HTTP sessions.
type Server struct {
	snap *engine.Snapshot // default database; nil in catalog-only mode
	cfg  Config
	cat  *catalog.Catalog

	admit *limiter

	mu       sync.Mutex
	sessions map[string]*session
	closed   bool
	draining atomic.Bool

	sessionsCreated atomic.Uint64
	sessionPanics   atomic.Uint64
	execTimeouts    atomic.Uint64

	// testExecHook, when set (tests only), runs inside the exec goroutine
	// before the engine executes the line — the lever for injecting
	// slowness and panics into live serving without a debug grammar.
	testExecHook func(line string)
}

// session pairs an engine session with the mutex that serializes its
// requests: engine.Session is single-user by contract, and concurrent
// requests for one token must not interleave inside it. Distinct sessions
// never share this lock — their concurrency is the engine's business.
type session struct {
	mu sync.Mutex
	s  *engine.Session
	// db names the catalog generation the session was created over
	// ("" = the default database).
	db string
	// dead flips (before the engine session closes) when the session is
	// killed; a request already past the token lookup checks it under mu so
	// it can never run a command against a released snapshot.
	dead atomic.Bool
}

// NewWithConfig creates a server. snap may be nil when every session names
// a catalog database explicitly.
func NewWithConfig(snap *engine.Snapshot, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		snap:     snap,
		cfg:      cfg,
		cat:      cfg.Catalog,
		admit:    newLimiter(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueTimeout),
		sessions: map[string]*session{},
	}
}

// Catalog returns the lifecycle catalog behind the server.
func (srv *Server) Catalog() *catalog.Catalog { return srv.cat }

// Handler returns the HTTP handler for the API above. Health, readiness
// and stats bypass admission control — they must answer while shedding.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", srv.handleReady)
	mux.HandleFunc("GET /v1/stats", srv.handleStats)
	mux.HandleFunc("GET /v1/info", srv.handleInfo)
	mux.HandleFunc("GET /v1/catalog", srv.handleCatalog)
	mux.HandleFunc("GET /v1/trace", srv.limited(srv.handleTrace, serveWhileDraining))
	mux.HandleFunc("GET /v1/pick", srv.limited(srv.handlePick, serveWhileDraining))
	mux.HandleFunc("GET /v1/report", srv.limited(srv.handleReport, serveWhileDraining))
	mux.HandleFunc("POST /v1/ingest", srv.limited(srv.handleIngest, shedWhileDraining))
	mux.HandleFunc("POST /v1/compare", srv.limited(srv.handleCompare, shedWhileDraining))
	mux.HandleFunc("POST /v1/sessions", srv.limited(srv.handleCreate, shedWhileDraining))
	// Exec keeps serving during a drain: existing sessions finish their
	// work inside the shutdown window; only NEW work is refused.
	mux.HandleFunc("POST /v1/sessions/{token}/exec", srv.limited(srv.handleExec, serveWhileDraining))
	mux.HandleFunc("DELETE /v1/sessions/{token}", srv.handleDelete)
	return mux
}

// StartDrain flips /readyz to 503 so load balancers stop sending new work,
// while existing sessions keep serving. Call it before http.Server.Shutdown.
func (srv *Server) StartDrain() { srv.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (srv *Server) Draining() bool { return srv.draining.Load() }

// Close shuts every session down (cancelling their in-flight work) and
// refuses new ones. Graceful shutdown calls it after the HTTP server
// drains.
func (srv *Server) Close() {
	srv.draining.Store(true)
	srv.mu.Lock()
	srv.closed = true
	sessions := make([]*session, 0, len(srv.sessions))
	for token, se := range srv.sessions {
		sessions = append(sessions, se)
		delete(srv.sessions, token)
	}
	srv.mu.Unlock()
	// Cancel everything first so in-flight commands all start winding down,
	// then wait for each worker to leave the session (mu barrier) before
	// releasing its snapshot — never unmap under a reader.
	for _, se := range sessions {
		se.dead.Store(true)
		se.s.Cancel()
	}
	for _, se := range sessions {
		se.mu.Lock()
		se.mu.Unlock() //nolint:staticcheck // empty critical section = drain barrier
		se.s.Close()
	}
}

// SessionCount reports the number of live sessions.
func (srv *Server) SessionCount() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// --- typed errors and admission ---------------------------------------

// apiError is the typed JSON error envelope degraded responses carry.
type apiError struct {
	Type    string `json:"type"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, typ, msg string) {
	writeJSON(w, status, struct {
		Error apiError `json:"error"`
	}{apiError{Type: typ, Message: msg}})
}

// writeShed answers an overload response: 429 (try again, the queue timed
// out) or 503 (queue full / draining), always with Retry-After.
func writeShed(w http.ResponseWriter, status int, typ, msg string, retryAfter time.Duration) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, status, typ, msg)
}

// limiter is the bounded admission queue: MaxInflight slots execute,
// MaxQueue requests wait, the rest shed immediately. Waiting is bounded by
// the queue timeout and the client's own context.
type limiter struct {
	slots chan struct{}
	queue chan struct{}
	wait  time.Duration
	shed  atomic.Uint64
}

func newLimiter(inflight, queued int, wait time.Duration) *limiter {
	return &limiter{
		slots: make(chan struct{}, inflight),
		queue: make(chan struct{}, queued),
		wait:  wait,
	}
}

// acquire returns a release func, or nil with a shed status/type.
func (l *limiter) acquire(done <-chan struct{}) (release func(), status int, typ string) {
	select {
	case l.slots <- struct{}{}:
		return func() { <-l.slots }, 0, ""
	default:
	}
	select {
	case l.queue <- struct{}{}:
	default:
		l.shed.Add(1)
		return nil, http.StatusServiceUnavailable, "queue-full"
	}
	defer func() { <-l.queue }()
	t := time.NewTimer(l.wait)
	defer t.Stop()
	select {
	case l.slots <- struct{}{}:
		return func() { <-l.slots }, 0, ""
	case <-t.C:
		l.shed.Add(1)
		return nil, http.StatusTooManyRequests, "queue-timeout"
	case <-done:
		l.shed.Add(1)
		return nil, http.StatusServiceUnavailable, "client-gone"
	}
}

// drainPolicy says what a handler does while the server drains: work that
// would create state (sessions, generations, unions) is shed, work that
// finishes existing state (exec) keeps serving.
type drainPolicy bool

const (
	shedWhileDraining  drainPolicy = true
	serveWhileDraining drainPolicy = false
)

// limited wraps a handler in admission control and the body-size cap.
func (srv *Server) limited(h http.HandlerFunc, drain drainPolicy) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if drain == shedWhileDraining && srv.draining.Load() {
			writeShed(w, http.StatusServiceUnavailable, "draining", "server is draining", 5*time.Second)
			return
		}
		release, status, typ := srv.admit.acquire(r.Context().Done())
		if release == nil {
			writeShed(w, status, typ, "server overloaded, request shed", srv.cfg.QueueTimeout)
			return
		}
		defer release()
		limit := srv.cfg.MaxBodyBytes
		if r.URL.Path == "/v1/ingest" {
			limit = srv.cfg.MaxIngestBytes
		}
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		h(w, r)
	}
}

// decodeBody decodes a JSON request body, mapping an exceeded size cap
// onto 413 and malformed JSON onto 400. An empty body decodes to the zero
// value (dst untouched).
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := json.NewDecoder(r.Body).Decode(dst)
	if err == nil || errors.Is(err, io.EOF) { // io.EOF: empty body = zero request
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "body-too-large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, "bad-request", "bad request body: "+err.Error())
	return false
}

// --- health, stats -----------------------------------------------------

func (srv *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if srv.draining.Load() {
		writeShed(w, http.StatusServiceUnavailable, "draining", "server is draining", 5*time.Second)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

type statsResponse struct {
	Sessions        int           `json:"sessions"`
	SessionsCreated uint64        `json:"sessions_created"`
	SessionPanics   uint64        `json:"session_panics"`
	ExecTimeouts    uint64        `json:"exec_timeouts"`
	ShedRequests    uint64        `json:"shed_requests"`
	Draining        bool          `json:"draining"`
	Catalog         catalog.Stats `json:"catalog"`
}

func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Sessions:        srv.SessionCount(),
		SessionsCreated: srv.sessionsCreated.Load(),
		SessionPanics:   srv.sessionPanics.Load(),
		ExecTimeouts:    srv.execTimeouts.Load(),
		ShedRequests:    srv.admit.shed.Load(),
		Draining:        srv.draining.Load(),
		Catalog:         srv.cat.Stats(),
	})
}

// --- info --------------------------------------------------------------

type infoResponse struct {
	Nodes   int      `json:"nodes"`
	Metrics []string `json:"metrics"`
	Notes   []string `json:"notes,omitempty"`
}

func (srv *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if srv.snap == nil {
		writeError(w, http.StatusNotFound, "no-default-database",
			"server has no default database; sessions must name one from /v1/catalog")
		return
	}
	info := infoResponse{Nodes: srv.snap.Tree().NumNodes(), Notes: srv.snap.Notes()}
	for _, d := range srv.snap.Tree().Reg.Columns() {
		info.Metrics = append(info.Metrics, d.Name)
	}
	writeJSON(w, http.StatusOK, info)
}

// --- ingest ------------------------------------------------------------

type ingestResponse struct {
	Name string `json:"name"`
}

func (srv *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ts, err := strconv.ParseInt(q.Get("ts"), 10, 64)
	if q.Get("service") == "" || q.Get("ts") == "" || err != nil {
		writeError(w, http.StatusBadRequest, "bad-key",
			"ingest needs ?service= and integer ?ts= (and optionally ?run=)")
		return
	}
	key := catalog.Key{Service: q.Get("service"), Run: q.Get("run"), Ts: ts}
	if err := key.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad-key", err.Error())
		return
	}
	if err := srv.cat.Ingest(key, r.Body); err != nil {
		var tooBig *http.MaxBytesError
		var ierr *catalog.IngestError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, "body-too-large",
				fmt.Sprintf("ingest body exceeds %d bytes", tooBig.Limit))
		case errors.Is(err, catalog.ErrDuplicate):
			writeError(w, http.StatusConflict, "duplicate-generation", err.Error())
		case errors.As(err, &ierr):
			writeError(w, http.StatusUnprocessableEntity, "invalid-database", err.Error())
		default:
			writeError(w, http.StatusInternalServerError, "ingest-failed", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusCreated, ingestResponse{Name: key.String()})
}

// --- sessions ----------------------------------------------------------

type createRequest struct {
	// DB names a catalog database ("service/run", optionally "@ts") to
	// present; empty means the server's default database.
	DB string `json:"db,omitempty"`
}

type createResponse struct {
	Token string `json:"token"`
	DB    string `json:"db,omitempty"`
}

func (srv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if !decodeBody(w, r, &req) {
		return
	}
	token, err := newToken()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "token generation failed")
		return
	}

	snap := srv.snap
	dbName := ""
	if req.DB != "" {
		acq, key, err := srv.cat.Acquire(req.DB)
		if err != nil {
			writeAcquireError(w, err)
			return
		}
		snap = acq
		dbName = key.String()
		// NewSession takes its own reference below; the Acquire reference
		// drops right after.
		defer acq.Release()
	} else if snap == nil {
		writeError(w, http.StatusNotFound, "no-default-database",
			`server has no default database; pass {"db": NAME}`)
		return
	}

	s := engine.NewSession(snap)
	s.SetSource(srv.cfg.Source)
	s.SetCatalog(srv)
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		s.Close()
		writeShed(w, http.StatusServiceUnavailable, "shutting-down", "server shutting down", 5*time.Second)
		return
	}
	srv.sessions[token] = &session{s: s, db: dbName}
	srv.mu.Unlock()
	srv.sessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, createResponse{Token: token, DB: dbName})
}

// writeAcquireError maps catalog acquire failures onto typed statuses: an
// unknown name is the client's fault, a damaged published file is a
// degraded server state (503: another generation may publish any moment).
func writeAcquireError(w http.ResponseWriter, err error) {
	var oerr *catalog.OpenError
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		writeError(w, http.StatusNotFound, "unknown-database", err.Error())
	case errors.As(err, &oerr):
		writeShed(w, http.StatusServiceUnavailable, "database-damaged", err.Error(), 5*time.Second)
	case errors.Is(err, catalog.ErrClosed):
		writeShed(w, http.StatusServiceUnavailable, "shutting-down", err.Error(), 5*time.Second)
	default:
		writeError(w, http.StatusBadRequest, "bad-database-name", err.Error())
	}
}

type execRequest struct {
	Line string `json:"line"`
}

type execResponse struct {
	Output string `json:"output"`
	Err    string `json:"error,omitempty"`
	Quit   bool   `json:"quit,omitempty"`
}

func (srv *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	token := r.PathValue("token")
	srv.mu.Lock()
	se := srv.sessions[token]
	srv.mu.Unlock()
	if se == nil {
		writeError(w, http.StatusNotFound, "unknown-session", "unknown session")
		return
	}
	var req execRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, ok := srv.execSession(w, token, se, engine.Request{Line: req.Line})
	if !ok {
		return
	}
	if resp.Quit {
		srv.remove(token)
	}
	writeJSON(w, http.StatusOK, execResponse{Output: resp.Output, Err: resp.Err, Quit: resp.Quit})
}

// execResult carries one command's outcome out of its goroutine.
type execResult struct {
	resp     engine.Response
	panicked any
	stack    []byte
	// dead reports the session was killed before the command could run.
	dead bool
}

// execSession runs one engine command under the per-request deadline with
// panic isolation. A panic or deadline kills the session — its in-flight
// work must be cancelled — but never the process: the session is removed,
// the failure is counted in /v1/stats, and the client gets a typed error.
// Returns ok=false when it already wrote an error response.
//
// Release discipline: the session's snapshot may only be released once no
// goroutine is inside se.s.Do — otherwise a catalog eviction could leave
// the session holding the last reference and the release would unmap
// memory the worker is still reading. The deadline path therefore only
// cancels and unroutes the session; the final Close happens in a reaper
// that waits for the worker to drain into the buffered channel.
func (srv *Server) execSession(w http.ResponseWriter, token string, se *session, req engine.Request) (engine.Response, bool) {
	done := make(chan execResult, 1)
	go func() {
		// A fault on a mapped page (a database file truncated under the
		// server) panics here instead of killing the process; the recover
		// below makes it the session's error.
		debug.SetPanicOnFault(true)
		defer func() {
			// The recover runs after the mu-unlock defer below (LIFO), so a
			// panic never leaves se.mu locked for the requests queued on it.
			if p := recover(); p != nil {
				done <- execResult{panicked: p, stack: debug.Stack()}
			}
		}()
		se.mu.Lock()
		defer se.mu.Unlock()
		if se.dead.Load() {
			// The session was killed (deadline, panic, delete, shutdown)
			// while this request waited on se.mu; its snapshot reference is
			// gone or going, so the command must not touch the engine.
			done <- execResult{dead: true}
			return
		}
		if hook := srv.testExecHook; hook != nil {
			hook(req.Line)
		}
		done <- execResult{resp: se.s.Do(req)}
	}()

	var deadline <-chan time.Time
	if srv.cfg.ExecTimeout > 0 {
		t := time.NewTimer(srv.cfg.ExecTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case res := <-done:
		switch {
		case res.panicked != nil:
			srv.sessionPanics.Add(1)
			srv.remove(token)
			writeError(w, http.StatusInternalServerError, "session-panic",
				fmt.Sprintf("command %q crashed its session (session closed): %v", req.Line, res.panicked))
			return engine.Response{}, false
		case res.dead:
			writeError(w, http.StatusNotFound, "unknown-session", "session closed")
			return engine.Response{}, false
		}
		return res.resp, true
	case <-deadline:
		// Kill the session — but never unmap under the reader: cancel its
		// context (in-flight bulk expansion stops at the next root) and
		// unroute the token now, then let a reaper release the snapshot
		// only after the worker has drained into the buffered channel.
		srv.execTimeouts.Add(1)
		se.dead.Store(true)
		se.s.Cancel()
		srv.forget(token)
		go func() {
			if res := <-done; res.panicked != nil {
				srv.sessionPanics.Add(1)
			}
			se.s.Close()
		}()
		writeError(w, http.StatusGatewayTimeout, "deadline-exceeded",
			fmt.Sprintf("command %q exceeded the %s request deadline (session closed)", req.Line, srv.cfg.ExecTimeout))
		return engine.Response{}, false
	}
}

func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !srv.remove(r.PathValue("token")) {
		writeError(w, http.StatusNotFound, "unknown-session", "unknown session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// remove closes and forgets one session; reports whether it existed. It
// marks the session dead and cancels it first, then waits for any worker
// still inside the engine (holding se.mu) to drain before releasing the
// snapshot — a DELETE racing an in-flight command must not unmap under it.
func (srv *Server) remove(token string) bool {
	srv.mu.Lock()
	se := srv.sessions[token]
	delete(srv.sessions, token)
	srv.mu.Unlock()
	if se == nil {
		return false
	}
	se.dead.Store(true)
	se.s.Cancel()
	se.mu.Lock()
	se.mu.Unlock() //nolint:staticcheck // empty critical section = drain barrier
	se.s.Close()
	return true
}

// forget unroutes a token without closing its session; the caller owns the
// close (the deadline path, whose reaper must drain the worker first).
func (srv *Server) forget(token string) {
	srv.mu.Lock()
	delete(srv.sessions, token)
	srv.mu.Unlock()
}

func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
