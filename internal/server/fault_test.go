package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/metric"
)

// TestTruncatedDatabaseFaultIsSessionError: a database file truncated
// while the server has it mapped makes the next command that reads a lost
// page fault. The fault must come back as the 500 of every session that
// reads it, or of the route that reads it outside a session, naming the
// database, and the server must keep answering. The
// server runs in a child process, so a fault that kills it fails this test
// rather than the test binary; the child exits on its own and is waited
// for.
func TestTruncatedDatabaseFaultIsSessionError(t *testing.T) {
	for _, c := range []struct {
		name     string
		sessions int
		lines    []string
	}{
		// One session: the fault is read by the Flat View's build or
		// its expansion.
		{"view_flat", 1, []string{"view flat", "expandall"}},
		// Two sessions ask for the snapshot's one Callers View: the first
		// build faults, and the second session gets that fault again
		// rather than a view that was never built.
		{"two_sessions_view_callers", 2, []string{"view callers"}},
		// No session: the routes read the mapped columns themselves, in
		// report.Build and in the diff's union.
		{"report", 0, []string{"GET /v1/report"}},
		{"compare", 0, []string{`POST /v1/compare {"other": "pinned"}`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if os.Getenv("SERVER_FAULT_CHILD") == "1" {
				truncatedDatabaseChild(t, c.sessions, c.lines)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestTruncatedDatabaseFaultIsSessionError$/^"+c.name+"$", "-test.v")
			cmd.Env = append(os.Environ(), "SERVER_FAULT_CHILD=1")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("the server process failed: %v\n%s", err, out)
			}
			if bytes.Contains(out, []byte("--- SKIP")) {
				t.Skipf("child skipped:\n%s", out)
			}
			if !bytes.Contains(out, []byte("--- PASS")) {
				t.Fatalf("the child ran no test:\n%s", out)
			}
		})
	}
}

// truncatedDatabaseChild serves a v3 database of a few thousand scopes,
// opens the sessions, truncates the file to 4 KiB, and has each session run
// the lines until one fails. With no sessions, each line is a request,
// "METHOD PATH [BODY]", the first that fails is the one checked, and the
// database is also pinned as "pinned".
func truncatedDatabaseChild(t *testing.T, sessions int, lines []string) {
	reg := metric.NewRegistry()
	if _, err := reg.AddRaw("cost", "samples", 1); err != nil {
		t.Fatal(err)
	}
	tree := core.NewTree("p", reg)
	frames := []*core.Node{tree.Root}
	for i := 1; i <= 6000; i++ {
		f := frames[(i-1)/3].AppendChild(core.Key{Kind: core.KindFrame, Name: core.Sym("f" + string(rune('a'+i%7))), File: core.Sym("f.c"), ID: uint64(i)})
		f.AppendChild(core.Key{Kind: core.KindStmt, File: core.Sym("f.c"), Line: i}).Base.Add(0, float64(i))
		frames = append(frames, f)
	}
	tree.ComputeMetrics()
	path := filepath.Join(t.TempDir(), "experiment.db")
	var buf bytes.Buffer
	if err := expdb.New(tree).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sn, err := engine.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Mapped() {
		t.Skip("the database is read into memory, not mapped: truncating the file faults nothing")
	}
	srv := NewWithConfig(sn, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, hc: ts.Client()}
	tokens := make([]string, sessions)
	for i := range tokens {
		tokens[i] = c.createSession()
	}
	if sessions == 0 {
		if err := srv.AddSnapshot("pinned", sn); err != nil {
			t.Fatal(err)
		}
	}

	if err := os.Truncate(path, 4096); err != nil {
		t.Fatal(err)
	}
	if sessions == 0 {
		status, body := 0, ""
		for _, line := range lines {
			method, rest, _ := strings.Cut(line, " ")
			route, payload, _ := strings.Cut(rest, " ")
			req, err := http.NewRequest(method, c.base+route, strings.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.hc.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if status, body = resp.StatusCode, string(b); status != http.StatusOK {
				break
			}
		}
		// A compare of the database with itself names it twice.
		if status != http.StatusInternalServerError || !strings.Contains(body, "database-fault") || !strings.Contains(body, "reading "+path) || !strings.Contains(body, "fault on a page") {
			t.Fatalf("%s after the truncation: status %d, body %s; want 500 database-fault naming %s", lines, status, body, path)
		}
	}
	for i, token := range tokens {
		status, body := 0, ""
		for _, line := range lines {
			payload, _ := json.Marshal(map[string]string{"line": line})
			resp, err := c.hc.Post(c.base+"/v1/sessions/"+token+"/exec", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if status, body = resp.StatusCode, string(b); status != http.StatusOK {
				break
			}
		}
		// Only a fault names the file: a nil view's dereference would not.
		if status != http.StatusInternalServerError || !strings.Contains(body, "session-panic") || !strings.Contains(body, "reading "+path+": fault") {
			t.Fatalf("session %d after the truncation: status %d, body %s; want 500 session-panic naming %s", i, status, body, path)
		}
	}
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats after the fault: status %d", resp.StatusCode)
	}
}
