package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// fixtureBytes builds the merged multi-rank toy experiment (summary columns
// beside the raw ones) and serializes it as v3, so that opening it maps it
// and sessions exercise column fault-in.
func fixtureBytes(t *testing.T) []byte {
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
	profs, err := mpi.Run(im, mpi.Config{NRanks: 3, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	cyc := res.Tree.Reg.ByName("CYCLES")
	if cyc == nil {
		t.Fatal("no CYCLES column")
	}
	if err := res.AddSummaries(cyc.ID, metric.OpMean, metric.OpMax); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := expdb.FromMerge(res).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

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

// TestHTTPSessionEquivalence is the transport half of the PR's acceptance
// gate: command streams executed over HTTP against one shared server
// produce byte-identical output to the same streams replayed through
// private engine sessions over private database opens. The HTTP layer adds
// tokens and JSON framing — never presentation semantics.
func TestHTTPSessionEquivalence(t *testing.T) {
	data := fixtureBytes(t)
	streams := [][]string{
		{"ls", "expand 0", "hot CYCLES", "view callers", "expandall", "ls"},
		{"view flat", "flatten", "sort CYCLES:excl", "ls", "stats CYCLES"},
		{"derived waste=$0*2", "sort waste", "expandall", "ls", "stats waste"},
		{"cols all", "sort name", "ls", "zoom 0", "ls", "out", "metrics"},
		{"view callers", "expand 0", "sort CYCLES", "ls", "view cc", "top 2", "ls"},
		{"hot CYCLES", "threshold 0.9", "hot CYCLES", "depth 3", "ls"},
		{"derived d2=$1+$0", "cols all", "sort d2", "ls", "hot d2", "ls"},
		{"expandall", "ls", "view flat", "flatten", "flatten", "ls", "unflatten", "ls"},
	}

	// Ground truth: isolated engine replays, one private snapshot each.
	want := make([]string, len(streams))
	for i, stream := range streams {
		s := engine.NewSession(mappedSnapshot(t, data))
		var out strings.Builder
		for _, line := range stream {
			resp := s.Do(engine.Request{Line: line})
			out.WriteString(resp.Output)
			if resp.Err != "" {
				fmt.Fprintf(&out, "error: %s\n", resp.Err)
			}
		}
		s.Close()
		want[i] = out.String()
		if !strings.Contains(want[i], "scope") {
			t.Fatalf("stream %d produced no render:\n%s", i, want[i])
		}
	}

	srv := New(mappedSnapshot(t, data), nil, 1)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	got := make([]string, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{t: t, base: ts.URL, hc: ts.Client()}
			token := c.createSession()
			var out strings.Builder
			for _, line := range streams[i] {
				output, errText, _ := c.exec(token, line)
				out.WriteString(output)
				if errText != "" {
					fmt.Fprintf(&out, "error: %s\n", errText)
				}
			}
			got[i] = out.String()
		}(i)
	}
	wg.Wait()

	for i := range got {
		if got[i] != want[i] {
			t.Errorf("HTTP stream %d diverged from isolated engine replay\n--- http ---\n%s\n--- engine ---\n%s",
				i, got[i], want[i])
		}
	}
}

// TestSessionLifecycle covers the transport contract: create, exec,
// delete, 404s for unknown tokens, quit closing server-side, and Close
// refusing new sessions.
func TestSessionLifecycle(t *testing.T) {
	srv := New(mappedSnapshot(t, fixtureBytes(t)), nil, 1)
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
