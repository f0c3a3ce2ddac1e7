package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// fixtureV3Bytes serializes the toy workload in the mapped (v3) format —
// the payload ingest tests push over HTTP.
func fixtureV3Bytes(t *testing.T, ranks int) []byte {
	t.Helper()
	spec, err := workloads.ByName("toy")
	if err != nil {
		t.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := structfile.Recover(im)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := expdb.FromMerge(res).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// apiErrorOf decodes the typed error envelope degraded responses carry.
func apiErrorOf(t *testing.T, body []byte) apiError {
	t.Helper()
	var e struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("response is not a typed error envelope: %v\n%s", err, body)
	}
	if e.Error.Type == "" {
		t.Fatalf("error envelope has no type: %s", body)
	}
	return e.Error
}

func getStats(t *testing.T, hc *http.Client, base string) statsResponse {
	t.Helper()
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHealthReadyAndDrain: the probes answer, and StartDrain flips /readyz
// to 503 while sessions created before the drain keep executing — only new
// state (sessions, ingest, compare) is shed.
func TestHealthReadyAndDrain(t *testing.T) {
	srv := New(mappedSnapshot(t, fixtureBytes(t)), nil, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := hc.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	c := &client{t: t, base: ts.URL, hc: hc}
	token := c.createSession()

	srv.StartDrain()
	resp, err := hc.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining /readyz lacks Retry-After")
	}
	if e := apiErrorOf(t, body); e.Type != "draining" {
		t.Fatalf("draining error type = %q", e.Type)
	}
	// /healthz still says the process is alive.
	if resp, err := hc.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("/healthz while draining: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Existing sessions keep serving through the drain window...
	if out, errText, _ := c.exec(token, "ls"); errText != "" || out == "" {
		t.Fatalf("exec while draining: %q / %q", out, errText)
	}
	// ...but new sessions are shed with a typed 503.
	status, data := postJSON(t, hc, ts.URL+"/v1/sessions", map[string]any{})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = %d, want 503", status)
	}
	if e := apiErrorOf(t, data); e.Type != "draining" {
		t.Fatalf("create-while-draining error type = %q", e.Type)
	}
	if !getStats(t, hc, ts.URL).Draining {
		t.Fatal("stats do not report draining")
	}
}

// TestBodyCap413 is the regression test the listener hardening demands: an
// oversized control-plane body must produce 413 with a typed error, not an
// unbounded read.
func TestBodyCap413(t *testing.T) {
	srv := NewWithConfig(mappedSnapshot(t, fixtureBytes(t)), Config{Jobs: 1, MaxBodyBytes: 256})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()
	c := &client{t: t, base: ts.URL, hc: hc}
	token := c.createSession()

	huge := strings.Repeat("x", 4096)
	for _, url := range []string{
		ts.URL + "/v1/sessions",
		ts.URL + "/v1/sessions/" + token + "/exec",
		ts.URL + "/v1/compare",
	} {
		status, data := postJSON(t, hc, url, map[string]any{"line": huge, "db": huge, "other": huge})
		if status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with 4KiB body = %d, want 413 (%s)", url, status, data)
		}
		if e := apiErrorOf(t, data); e.Type != "body-too-large" {
			t.Fatalf("%s error type = %q, want body-too-large", url, e.Type)
		}
	}
	// A small body still works afterwards: the cap rejects the request, not
	// the connection or the session.
	if out, errText, _ := c.exec(token, "ls"); errText != "" || out == "" {
		t.Fatalf("exec after 413s: %q / %q", out, errText)
	}

	// The ingest cap is separate: a payload over MaxIngestBytes gets 413
	// and nothing is published.
	srv2 := NewWithConfig(nil, Config{Jobs: 1, MaxIngestBytes: 1024,
		Catalog: catalog.New(catalog.Config{Dir: t.TempDir()})})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	big := fixtureV3Bytes(t, 2)
	if len(big) <= 1024 {
		t.Fatalf("fixture unexpectedly small (%d bytes)", len(big))
	}
	resp, err := ts2.Client().Post(ts2.URL+"/v1/ingest?service=svc&ts=1", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d (%s), want 413", resp.StatusCode, data)
	}
	if e := apiErrorOf(t, data); e.Type != "body-too-large" {
		t.Fatalf("oversized ingest error type = %q", e.Type)
	}
	if st := srv2.Catalog().Stats(); st.Generations != 0 {
		t.Fatalf("oversized ingest published something: %+v", st)
	}
}

// TestIngestToSessionE2E walks the full lifecycle over HTTP: ingest a
// database, see it in the catalog, open a session over it by name, render,
// republish a new generation, and watch new sessions resolve to it while
// the old session keeps its own.
func TestIngestToSessionE2E(t *testing.T) {
	srv := NewWithConfig(nil, Config{Jobs: 1,
		Catalog: catalog.New(catalog.Config{Dir: t.TempDir()})})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()
	c := &client{t: t, base: ts.URL, hc: hc}

	ingest := func(query string, payload []byte) (int, []byte) {
		t.Helper()
		resp, err := hc.Post(ts.URL+"/v1/ingest?"+query, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}

	genA := fixtureV3Bytes(t, 2)
	genB := fixtureV3Bytes(t, 3)

	// No default database: /v1/info and bare session creation are typed 404s.
	resp, err := hc.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || apiErrorOf(t, data).Type != "no-default-database" {
		t.Fatalf("/v1/info with no default = %d %s", resp.StatusCode, data)
	}
	status, data := postJSON(t, hc, ts.URL+"/v1/sessions", map[string]any{})
	if status != http.StatusNotFound || apiErrorOf(t, data).Type != "no-default-database" {
		t.Fatalf("bare session with no default = %d %s", status, data)
	}

	// Ingest generation A and serve a session over it.
	status, data = ingest("service=s3d&run=run1&ts=1", genA)
	if status != http.StatusCreated {
		t.Fatalf("ingest = %d: %s", status, data)
	}
	var ing ingestResponse
	if err := json.Unmarshal(data, &ing); err != nil || ing.Name != "s3d/run1@1" {
		t.Fatalf("ingest response %q: %v", data, err)
	}
	status, data = postJSON(t, hc, ts.URL+"/v1/sessions", map[string]any{"db": "s3d/run1"})
	if status != http.StatusCreated {
		t.Fatalf("session over ingested db = %d: %s", status, data)
	}
	var created createResponse
	if err := json.Unmarshal(data, &created); err != nil {
		t.Fatal(err)
	}
	if created.DB != "s3d/run1@1" {
		t.Fatalf("session db = %q, want s3d/run1@1", created.DB)
	}
	outA, errText, _ := c.exec(created.Token, "ls")
	if errText != "" || outA == "" {
		t.Fatalf("render over ingested db: %q / %q", outA, errText)
	}

	// Error shapes: duplicate, invalid payload, bad key, unknown name.
	if status, data = ingest("service=s3d&run=run1&ts=1", genA); status != http.StatusConflict || apiErrorOf(t, data).Type != "duplicate-generation" {
		t.Fatalf("duplicate ingest = %d %s", status, data)
	}
	bad := append([]byte(nil), genA...)
	for i := len(bad) / 2; i < len(bad)/2+256 && i < len(bad); i++ {
		bad[i] ^= 0x40
	}
	if status, data = ingest("service=s3d&run=run1&ts=9", bad); status != http.StatusUnprocessableEntity || apiErrorOf(t, data).Type != "invalid-database" {
		t.Fatalf("corrupt ingest = %d %s", status, data)
	}
	if status, data = ingest("service=bad..name&ts=x", genA); status != http.StatusBadRequest {
		t.Fatalf("bad key ingest = %d %s", status, data)
	}
	if status, data = postJSON(t, hc, ts.URL+"/v1/sessions", map[string]any{"db": "nope"}); status != http.StatusNotFound || apiErrorOf(t, data).Type != "unknown-database" {
		t.Fatalf("unknown db session = %d %s", status, data)
	}

	// Republish: generation B supersedes for NEW sessions; the session over
	// A renders exactly as before.
	if status, data = ingest("service=s3d&run=run1&ts=2", genB); status != http.StatusCreated {
		t.Fatalf("republish = %d: %s", status, data)
	}
	status, data = postJSON(t, hc, ts.URL+"/v1/sessions", map[string]any{"db": "s3d/run1"})
	if status != http.StatusCreated {
		t.Fatalf("session after republish = %d", status)
	}
	var created2 createResponse
	if err := json.Unmarshal(data, &created2); err != nil {
		t.Fatal(err)
	}
	if created2.DB != "s3d/run1@2" {
		t.Fatalf("post-republish session db = %q, want s3d/run1@2", created2.DB)
	}
	outB, errText, _ := c.exec(created2.Token, "ls")
	if errText != "" {
		t.Fatalf("render over republished db: %q", errText)
	}
	if outB == outA {
		t.Fatal("generations A and B render identically; the swap is unobservable")
	}
	if out, errText, _ := c.exec(created.Token, "ls"); errText != "" || out != outA {
		t.Fatal("in-flight session's render changed across a republish")
	}
	// Explicit @ts pins a session to the old generation.
	status, data = postJSON(t, hc, ts.URL+"/v1/sessions", map[string]any{"db": "s3d/run1@1"})
	if status != http.StatusCreated {
		t.Fatalf("session @1 = %d", status)
	}
	var created3 createResponse
	if err := json.Unmarshal(data, &created3); err != nil {
		t.Fatal(err)
	}
	if out, _, _ := c.exec(created3.Token, "ls"); out != outA {
		t.Fatal("@ts-pinned session did not see generation A")
	}

	st := getStats(t, hc, ts.URL)
	if st.Sessions != 3 || st.Catalog.Ingested != 2 || st.Catalog.IngestErrors == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
