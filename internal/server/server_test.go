package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/callpath"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/metric"
	"repro/internal/oracle"
)

// fixtureAt samples the toy workload at ranks and merges the profiles, with
// mean and max summaries of CYCLES beside the raw columns when summaries is
// set, and serializes the result as v3, so that opening it maps it.
func fixtureAt(t *testing.T, ranks int, summaries bool) []byte {
	t.Helper()
	run, err := callpath.Run(callpath.RunConfig{Workload: "toy", Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	res := run.Merged
	if summaries {
		if err := res.AddSummaries(res.Tree.Reg.ByName("CYCLES").ID, metric.OpMean, metric.OpMax); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := expdb.FromMerge(res).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fixtureBytes is the toy workload merged at three ranks, with summaries.
func fixtureBytes(t *testing.T) []byte { return fixtureAt(t, 3, true) }

// mappedSnapshot writes a v3 database to a file of its own and opens it the
// way hpcserver does.
func mappedSnapshot(t *testing.T, data []byte) *engine.Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "experiment.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sn, err := engine.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if sn.MappedBytes() == nil {
		t.Fatal("the fixture database was not opened as a v3 database")
	}
	return sn
}

// corruptColumn returns a copy of a v3 database with one payload byte of
// its first column section flipped, every checksum left as it was. It
// walks the index the trailer points at (trailer: index offset u64 first;
// 32-byte entries: kind u8 at 0, offset u64 at 8, length u64 at 16; column
// sections are kind 7).
func corruptColumn(t *testing.T, data []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	idx := binary.LittleEndian.Uint64(out[len(out)-32:])
	for en := out[idx : len(out)-32]; len(en) >= 32; en = en[32:] {
		if en[0] == 7 {
			off, n := binary.LittleEndian.Uint64(en[8:]), binary.LittleEndian.Uint64(en[16:])
			out[off+n/2] ^= 0xff
			return out
		}
	}
	t.Fatal("no column section")
	return nil
}

// TestInfoListsDamageAtOpen: /v1/info of a server over a database with a
// damaged column lists the column's note before any session has run.
func TestInfoListsDamageAtOpen(t *testing.T) {
	srv := NewWithConfig(mappedSnapshot(t, corruptColumn(t, fixtureBytes(t))), Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info struct {
		Notes []string `json:"notes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if len(info.Notes) != 1 || !strings.Contains(info.Notes[0], "failed its CRC32C check") {
		t.Fatalf("info notes = %q, want the column's CRC note", info.Notes)
	}
}

type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func (c *client) createSession() string {
	resp, err := c.hc.Post(c.base+"/v1/sessions", "application/json", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		c.t.Fatalf("create session: status %d", resp.StatusCode)
	}
	var body struct {
		Token string `json:"token"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		c.t.Fatal(err)
	}
	if body.Token == "" {
		c.t.Fatal("empty session token")
	}
	return body.Token
}

func (c *client) exec(token, line string) (output, errText string, quit bool) {
	payload, _ := json.Marshal(map[string]string{"line": line})
	resp, err := c.hc.Post(c.base+"/v1/sessions/"+token+"/exec", "application/json", bytes.NewReader(payload))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("exec %q: status %d", line, resp.StatusCode)
	}
	var body struct {
		Output string `json:"output"`
		Err    string `json:"error"`
		Quit   bool   `json:"quit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		c.t.Fatal(err)
	}
	return body.Output, body.Err, body.Quit
}

// TestHTTPSessionEquivalence: scripts oracle.Generate draws, sent at once
// over HTTP to one shared server, print byte for byte what they print
// through private engine sessions over private opens. The HTTP layer adds
// tokens and JSON framing — never presentation semantics.
func TestHTTPSessionEquivalence(t *testing.T) {
	data := fixtureBytes(t)
	e, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	model := oracle.NewModel(e, "", nil)
	scripts, want := make([][]string, 8), make([]string, 8)
	for i := range scripts {
		scripts[i] = oracle.Generate(int64(i+1), 30, model.Fresh())
		s := engine.NewSession(mappedSnapshot(t, data))
		want[i] = oracle.Replay(scripts[i], func(line string) (string, string) {
			resp := s.Do(engine.Request{Line: line})
			return resp.Output, resp.Err
		})
		s.Close()
	}

	srv := NewWithConfig(mappedSnapshot(t, data), Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	got := make([]string, len(scripts))
	var wg sync.WaitGroup
	for i := range scripts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{t: t, base: ts.URL, hc: ts.Client()}
			token := c.createSession()
			got[i] = oracle.Replay(scripts[i], func(line string) (string, string) {
				out, errText, _ := c.exec(token, line)
				return out, errText
			})
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("script %q over HTTP diverged from an isolated engine session\n--- http ---\n%s\n--- engine ---\n%s", scripts[i], got[i], want[i])
		}
	}
}

// TestSessionLifecycle covers the transport contract: create, exec,
// delete, 404s for unknown tokens, quit closing server-side, and Close
// refusing new sessions.
func TestSessionLifecycle(t *testing.T) {
	srv := NewWithConfig(mappedSnapshot(t, fixtureBytes(t)), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, hc: ts.Client()}

	// Health and info.
	resp, err := c.hc.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	resp, err = c.hc.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Nodes   int      `json:"nodes"`
		Metrics []string `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Nodes == 0 || len(info.Metrics) == 0 {
		t.Fatalf("empty info: %+v", info)
	}

	token := c.createSession()
	if srv.SessionCount() != 1 {
		t.Fatalf("session count = %d, want 1", srv.SessionCount())
	}
	if out, errText, _ := c.exec(token, "ls"); errText != "" || !strings.Contains(out, "scope") {
		t.Fatalf("ls over HTTP: err=%q out=%q", errText, out)
	}

	// Unknown token → 404.
	payload := strings.NewReader(`{"line":"ls"}`)
	resp, err = c.hc.Post(ts.URL+"/v1/sessions/nope/exec", "application/json", payload)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown token: status %d, want 404", resp.StatusCode)
	}

	// quit closes the session server-side; the token is then dead.
	if _, _, quit := c.exec(token, "quit"); !quit {
		t.Fatal("quit not reported")
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("session survived quit: count %d", srv.SessionCount())
	}
	resp, err = c.hc.Post(ts.URL+"/v1/sessions/"+token+"/exec", "application/json", strings.NewReader(`{"line":"ls"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dead token: status %d, want 404", resp.StatusCode)
	}

	// DELETE on a live session, then 404 on repeat.
	token2 := c.createSession()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+token2, nil)
	resp, err = c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", resp.StatusCode)
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("repeat delete: status %d, want 404", resp.StatusCode)
	}

	// After Close, new sessions are refused.
	srv.Close()
	resp, err = c.hc.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create after close: status %d, want 503", resp.StatusCode)
	}
}

// TestLongFormulaMemory: a derived formula as long as the body cap allows
// costs memory in proportion to its text when it is compiled and
// evaluated through the exec path, not a block of values per constant.
// The session keeps the compiled program; most of what exec allocates is
// the growth of its instruction slice and the parse tree.
func TestLongFormulaMemory(t *testing.T) {
	srv := NewWithConfig(mappedSnapshot(t, fixtureBytes(t)), Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, hc: ts.Client()}
	token := c.createSession()

	const prefix, suffix = "derived big=", "$0"
	n := (1<<20 - 64 - len(prefix) - len(suffix)) / 2 // room for the JSON framing
	line := prefix + strings.Repeat("1+", n) + suffix
	var before, after, held runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, errText, _ := c.exec(token, line); errText != "" {
		t.Fatalf("derived: %s", errText)
	}
	if _, errText, _ := c.exec(token, "stats big"); errText != "" {
		t.Fatalf("stats: %s", errText)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&held)
	const mib = 1 << 20
	if total := (after.TotalAlloc - before.TotalAlloc) / mib; total > 256 {
		t.Errorf("a %d-constant formula allocated %d MiB through exec, want at most 256", n, total)
	}
	if live := (int64(held.HeapAlloc) - int64(before.HeapAlloc)) / mib; live > 64 {
		t.Errorf("a session holding a %d-constant formula keeps %d MiB more live heap, want at most 64", n, live)
	}
	t.Logf("allocated %d MiB, holding %d MiB",
		(after.TotalAlloc-before.TotalAlloc)/mib, (int64(held.HeapAlloc)-int64(before.HeapAlloc))/mib)
}
