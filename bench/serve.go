package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/gen"
)

// serveMixed is hpcserver under a closed loop of GOMAXPROCS clients, one
// keep-alive connection each, over a catalog of many small databases whose
// memory budget is half their total size, with ingests of new generations
// mixed in. It uses the engine and the database layer the other way round
// from explore: warm small databases, concurrency, and writes beside reads.
type serveMixed struct {
	series, scopes, cols int
	payloads             int // distinct databases the ingests cycle through
	scriptsPerRound      int // per client; one round is one iteration
	iters                float64

	srv      *served
	expected sync.Map // "service/run@ts" -> the hot M0 output of that generation
	payload  [][]byte // expected hot output per payload
	clients  []*client
	total    struct{ bytes, scopes float64 }
	base     struct{ opens, evictions uint64 }
	acquires int
}

// serveScript is what one session does between create and delete.
var serveScript = []string{"hot M0", "sort M1", "view callers", "ls", "view flat", "ls"}

const (
	ingestEvery = 20 // every 20th script of a client is an ingest instead
	liveSeries  = 4  // ingests go to the hottest series, in turn
)

func newServe(short bool) workload {
	if short {
		return &serveMixed{series: 4, scopes: 500, cols: 4, payloads: 1, scriptsPerRound: 20, iters: 0.3}
	}
	return &serveMixed{series: 24, scopes: 20_000, cols: 4, payloads: 4, scriptsPerRound: 10, iters: 2.3}
}

func (s *serveMixed) rate() float64 { return s.iters }

func seriesName(i int) string { return fmt.Sprintf("s%02d", i) }

// catalogSeed makes the databases the server holds, the same for every run:
// what a session's first view costs follows the shape of the tree it opens,
// and the few hottest series decide the median, so with one catalog per seed
// first_view_ms differed by half between seeds of equal code. The seed of a
// run decides the traffic instead: which series every script opens.
const catalogSeed = 1

func (s *serveMixed) generate(dir string, _ int64) error {
	// The catalog directory holds files named as the catalog itself names
	// them (service__run__ts.db), so LoadDir publishes them at start-up.
	cat := filepath.Join(dir, "catalog")
	if err := os.MkdirAll(cat, 0o755); err != nil {
		return err
	}
	for i := 0; i < s.series; i++ {
		c := gen.CCT{Seed: catalogSeed*1000 + int64(i), Scopes: s.scopes, Cols: s.cols}
		if _, err := sutWriteCCT(c, 1, filepath.Join(cat, seriesName(i)+"__r__1.db")); err != nil {
			return err
		}
	}
	for k := 0; k < s.payloads; k++ {
		c := gen.CCT{Seed: catalogSeed*1000 + 500 + int64(k), Scopes: s.scopes, Cols: s.cols}
		if _, err := sutWriteCCT(c, 1, filepath.Join(dir, fmt.Sprintf("payload%d.db", k))); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveMixed) payloadPath(r *run, k int) string {
	return filepath.Join(r.dir, fmt.Sprintf("payload%d.db", k))
}

// hotOf is what the engine prints for hot M0 on a database, in process.
func hotOf(path string, jobs int) ([]byte, error) {
	off := newTracer(false)
	snap, err := sutOpen(off, path)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	sess := sutSession(off, snap, jobs)
	defer sess.Close()
	return sutExec(off, sess, "check", "hot M0")
}

func (s *serveMixed) prepare(r *run) error {
	s.expected = sync.Map{}
	s.payload, s.total.bytes, s.total.scopes = nil, 0, 0
	cat := filepath.Join(r.dir, "catalog")
	for i := 0; i < s.series; i++ {
		path := filepath.Join(cat, seriesName(i)+"__r__1.db")
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		s.total.bytes += float64(st.Size())
		s.total.scopes += float64(s.scopes)
		out, err := hotOf(path, r.jobs)
		if err != nil {
			return err
		}
		s.expected.Store(seriesName(i)+"/r@1", out)
	}
	for k := 0; k < s.payloads; k++ {
		out, err := hotOf(s.payloadPath(r, k), r.jobs)
		if err != nil {
			return err
		}
		s.payload = append(s.payload, out)
	}
	srv, err := sutServe(cat, int64(s.total.bytes/2), r.jobs)
	if err != nil {
		return err
	}
	s.srv = srv
	s.clients = nil
	for c := 0; c < r.jobs; c++ {
		rng := rand.New(rand.NewSource(r.seed*100 + int64(c)))
		s.clients = append(s.clients, &client{
			id: c, n: r.jobs, s: s, url: srv.url,
			// One connection per client, kept alive.
			http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			zipf: rand.NewZipf(rng, 1.2, 1, uint64(s.series-1)),
		})
	}
	return nil
}

func (s *serveMixed) close() error {
	if s.srv == nil {
		return nil
	}
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	err := s.srv.close()
	s.srv = nil
	return err
}

// client is one closed-loop user: it sends its next request only when the
// previous one has been answered.
type client struct {
	id, n   int
	s       *serveMixed
	url     string
	http    *http.Client
	zipf    *rand.Zipf
	scripts int // scripts and ingests done so far
	ingests int

	// Per round, folded into the run by the main goroutine afterwards.
	tr       *tracer
	lat      map[string][]time.Duration
	requests int
	acquires int
	bad      []string
	err      error
}

// request sends one request as a span of its route and returns the body.
// Anything but a 2xx answer is a failed operation.
func (c *client) request(route, method, url string, body io.Reader) (out []byte, d time.Duration) {
	var status int
	start := time.Now()
	err := c.tr.do("server.route."+route, func() error {
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		out, err = io.ReadAll(resp.Body)
		return err
	})
	d = time.Since(start)
	c.lat[route] = append(c.lat[route], d)
	c.requests++
	switch {
	case err != nil:
		c.bad = append(c.bad, fmt.Sprintf("%s %s: %v", method, url, err))
	case status < 200 || status > 299:
		c.bad = append(c.bad, fmt.Sprintf("%s %s: status %d: %.200s", method, url, status, out))
	}
	return out, d
}

func (c *client) exec(token, line string) (string, time.Duration) {
	body, _ := json.Marshal(map[string]string{"line": line})
	out, d := c.request("exec", "POST", c.url+"/v1/sessions/"+token+"/exec", bytes.NewReader(body))
	var resp struct{ Output, Error string }
	if err := json.Unmarshal(out, &resp); err != nil || resp.Error != "" {
		c.bad = append(c.bad, fmt.Sprintf("exec %q: %v %s", line, err, resp.Error))
	}
	return resp.Output, d
}

// script is one user session from create to delete.
func (c *client) script(r *run) {
	name := seriesName(int(c.zipf.Uint64())) + "/r"
	body, _ := json.Marshal(map[string]string{"db": name})
	out, created := c.request("create", "POST", c.url+"/v1/sessions", bytes.NewReader(body))
	c.acquires++
	var sess struct{ Token, DB string }
	if err := json.Unmarshal(out, &sess); err != nil || sess.Token == "" {
		c.bad = append(c.bad, fmt.Sprintf("create %s: no token in %.200s", name, out))
		return
	}
	total := created
	for i, line := range serveScript {
		got, d := c.exec(sess.Token, line)
		total += d
		if i == 0 {
			c.lat["first_view"] = append(c.lat["first_view"], created+d)
			if want, ok := c.s.expected.Load(sess.DB); !ok || got != string(want.([]byte)) {
				c.bad = append(c.bad, fmt.Sprintf("hot M0 on %s differs from the engine's output in process", sess.DB))
			}
		}
	}
	c.request("report", "GET", c.url+"/v1/report?db="+sess.DB, nil)
	c.acquires++
	_, d := c.request("delete", "DELETE", c.url+"/v1/sessions/"+sess.Token, nil)
	c.lat["script_noreport"] = append(c.lat["script_noreport"], total+d)
}

// ingest publishes a new generation of one of the live series. Clients
// take the live series in turn and number their generations apart, so no
// two ingests ever collide on a key.
func (c *client) ingest(r *run) {
	series := seriesName((c.id + c.ingests) % liveSeries)
	ts := int64(2 + c.ingests*c.n + c.id)
	k := c.ingests % len(c.s.payload)
	c.ingests++
	f, err := os.Open(c.s.payloadPath(r, k))
	if err != nil {
		c.err = err
		return
	}
	defer f.Close()
	// Stored before the request: the generation is visible to other
	// clients the moment the server publishes it.
	c.s.expected.Store(fmt.Sprintf("%s/r@%d", series, ts), c.s.payload[k])
	c.request("ingest", "POST", fmt.Sprintf("%s/v1/ingest?service=%s&run=r&ts=%d", c.url, series, ts), f)
}

func (c *client) round(r *run, scripts int) {
	for i := 0; i < scripts && c.err == nil; i++ {
		c.scripts++
		if c.scripts%ingestEvery == 0 {
			c.ingest(r)
		} else {
			c.script(r)
		}
	}
}

func (s *serveMixed) iterate(r *run) (time.Duration, error) {
	if len(r.iterMS) == 0 { // first timed iteration: counters start here
		st := s.srv.stats()
		s.base.opens, s.base.evictions, s.acquires = st.Opens, st.Evictions, 0
	}
	// The round is one span and every client's requests are its children,
	// so the trace knows they ran side by side.
	start := time.Now()
	r.tr.do("server.round", func() error {
		var wg sync.WaitGroup
		for _, c := range s.clients {
			c.tr, c.lat, c.requests, c.acquires, c.bad = r.tr.fork(), map[string][]time.Duration{}, 0, 0, nil
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.round(r, s.scriptsPerRound)
			}()
		}
		wg.Wait()
		return nil
	})
	wall := time.Since(start)
	for _, c := range s.clients {
		if c.err != nil {
			return 0, c.err
		}
		for route, ds := range c.lat {
			for _, d := range ds {
				r.sample(route, d)
			}
		}
		r.ops += c.requests
		s.acquires += c.acquires
		r.attempted += c.requests
		for _, msg := range c.bad {
			r.fail("%s", msg)
		}
	}
	return wall, nil
}

func (s *serveMixed) verify(r *run) error {
	r.values["db_bytes"], r.values["db_scopes"] = s.total.bytes, s.total.scopes
	r.values["expdb.db_bytes"] = s.total.bytes
	st := s.srv.stats()
	opens := float64(st.Opens - s.base.opens)
	r.values["catalog.opens"] = opens
	r.values["catalog.evictions"] = float64(st.Evictions - s.base.evictions)
	r.values["catalog.hit_ratio"] = 1 - opens/float64(s.acquires)

	var all []float64
	for _, route := range []string{"create", "exec", "report", "ingest", "delete"} {
		r.values["server.route."+route+".p50_ms"] = median(r.samples[route])
		all = append(all, r.samples[route]...)
	}
	r.values["server.route.exec.p99_ms"] = quantile(r.samples["exec"], 0.99)
	wall := 0.0
	for _, ms := range r.iterMS {
		wall += ms / 1000
	}
	r.values["http.rps"] = float64(len(all)) / wall
	r.values["http.p50_ms"] = median(all)
	t, name := tail(all)
	r.values["http.p99_ms"] = t
	fmt.Fprintf(os.Stderr, "bench: serve-mixed: %d requests, %.0f/s, p50 %.3f ms, %s %.3f ms\n", len(all), r.values["http.rps"], median(all), name, t)

	resp, err := http.Get(s.srv.url + "/v1/stats")
	if err != nil {
		return err
	}
	var stats struct {
		Shed float64 `json:"shed_requests"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return err
	}
	r.values["server.shed"] = stats.Shed
	r.check(stats.Shed == 0, "server shed %v requests", stats.Shed)
	if r.tr.log == nil {
		return nil
	}

	// Probes, straight at the catalog and the engine.
	hot := seriesName(0) + "/r"
	if err := s.srv.acquire(newTracer(false), "check", hot); err != nil {
		return err
	}
	for i := 0; i < 50; i++ {
		if err := s.srv.acquire(r.tr, "catalog.acquire_warm", hot); err != nil {
			return err
		}
	}
	for i := 0; i < 5; i++ {
		s.srv.evictAll()
		if err := s.srv.acquire(r.tr, "catalog.acquire_cold", hot); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		f, err := os.Open(s.payloadPath(r, 0))
		if err != nil {
			return err
		}
		err = s.srv.ingest(r.tr, "probe", int64(i+1), f)
		f.Close()
		if err != nil {
			return err
		}
	}
	var inProcess []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := s.srv.scriptInProcess(r.tr, hot, serveScript, r.jobs); err != nil {
			return err
		}
		inProcess = append(inProcess, float64(time.Since(start))/1e6)
	}
	r.values["server.http_tax_ratio"] = median(r.samples["script_noreport"]) / median(inProcess)
	return nil
}
