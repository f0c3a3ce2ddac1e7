package server

// Live-serving chaos for the HTTP layer: panics, stuck commands and
// request floods are injected into a serving process (via testExecHook —
// the hook runs inside the exec goroutine, exactly where a real engine
// bug would fire) and the process must degrade per contract: typed
// errors, killed sessions, shed requests — never a crash, never a wedge.
// `make chaos` runs these under -race.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestChaosPanicIsolation: a panic inside one session's command kills that
// session — typed 500, token gone, counted — while the process and every
// other session keep serving.
func TestChaosPanicIsolation(t *testing.T) {
	srv := New(mappedSnapshot(t, fixtureBytes(t)), nil, 1)
	defer srv.Close()
	srv.testExecHook = func(line string) {
		if strings.Contains(line, "BOOM") {
			panic("injected chaos panic")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()
	c := &client{t: t, base: ts.URL, hc: hc}

	victim := c.createSession()
	bystander := c.createSession()

	status, data := postJSON(t, hc, ts.URL+"/v1/sessions/"+victim+"/exec", map[string]string{"line": "ls BOOM"})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking exec = %d (%s), want 500", status, data)
	}
	if e := apiErrorOf(t, data); e.Type != "session-panic" {
		t.Fatalf("panic error type = %q", e.Type)
	}
	// The victim session is dead...
	status, _ = postJSON(t, hc, ts.URL+"/v1/sessions/"+victim+"/exec", map[string]string{"line": "ls"})
	if status != http.StatusNotFound {
		t.Fatalf("exec on panicked session = %d, want 404", status)
	}
	// ...the bystander is fine, repeatedly...
	for i := 0; i < 3; i++ {
		if out, errText, _ := c.exec(bystander, "ls"); errText != "" || out == "" {
			t.Fatalf("bystander exec %d: %q / %q", i, out, errText)
		}
	}
	// ...and the books record exactly one panic.
	st := getStats(t, hc, ts.URL)
	if st.SessionPanics != 1 || st.Sessions != 1 {
		t.Fatalf("stats after panic = %+v", st)
	}
}

// TestChaosDeadlineKillsSession: a command that outlives ExecTimeout gets
// a typed 504, its session is killed (not the process), and the counter
// moves. The stuck goroutine drains into the buffered result channel.
func TestChaosDeadlineKillsSession(t *testing.T) {
	gate := make(chan struct{})
	srv := NewWithConfig(mappedSnapshot(t, fixtureBytes(t)), Config{Jobs: 1, ExecTimeout: 50 * time.Millisecond})
	defer srv.Close()
	srv.testExecHook = func(line string) {
		if strings.Contains(line, "STALL") {
			<-gate
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()
	c := &client{t: t, base: ts.URL, hc: hc}

	token := c.createSession()
	status, data := postJSON(t, hc, ts.URL+"/v1/sessions/"+token+"/exec", map[string]string{"line": "ls STALL"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled exec = %d (%s), want 504", status, data)
	}
	if e := apiErrorOf(t, data); e.Type != "deadline-exceeded" {
		t.Fatalf("deadline error type = %q", e.Type)
	}
	close(gate) // unwedge the goroutine; it drains into the buffered channel
	status, _ = postJSON(t, hc, ts.URL+"/v1/sessions/"+token+"/exec", map[string]string{"line": "ls"})
	if status != http.StatusNotFound {
		t.Fatalf("exec on timed-out session = %d, want 404", status)
	}
	if st := getStats(t, hc, ts.URL); st.ExecTimeouts != 1 {
		t.Fatalf("stats after timeout = %+v", st)
	}
	// The server still creates and serves fresh sessions.
	fresh := c.createSession()
	if out, errText, _ := c.exec(fresh, "ls"); errText != "" || out == "" {
		t.Fatalf("fresh session after timeout: %q / %q", out, errText)
	}
}

// TestChaosAdmissionFlood: with one execution slot held hostage, a flood
// of requests must split into exactly the contract's three outcomes —
// served (200), queued-then-expired (429) or shed immediately (503) —
// every shed response carrying Retry-After and a typed error, and the
// books balancing: served + shed = flood.
func TestChaosAdmissionFlood(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := NewWithConfig(mappedSnapshot(t, fixtureBytes(t)), Config{
		Jobs:         1,
		MaxInflight:  1,
		MaxQueue:     2,
		QueueTimeout: 100 * time.Millisecond,
	})
	defer srv.Close()
	srv.testExecHook = func(line string) {
		if strings.Contains(line, "HOLD") {
			entered <- struct{}{}
			<-gate
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()
	c := &client{t: t, base: ts.URL, hc: hc}
	token := c.createSession()

	// Occupy the only slot.
	var hostage sync.WaitGroup
	hostage.Add(1)
	go func() {
		defer hostage.Done()
		status, _ := postJSON(t, hc, ts.URL+"/v1/sessions/"+token+"/exec", map[string]string{"line": "ls HOLD"})
		if status != http.StatusOK {
			t.Errorf("hostage exec = %d", status)
		}
	}()
	<-entered

	// Flood. Every response must be one of the three contract outcomes.
	const flood = 12
	statuses := make(chan int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+token+"/exec",
				strings.NewReader(`{"line":"ls"}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := hc.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("shed %d response lacks Retry-After", resp.StatusCode)
				}
			default:
				t.Errorf("flood response %d outside the contract", resp.StatusCode)
			}
			statuses <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(statuses)
	counts := map[int]int{}
	for s := range statuses {
		counts[s]++
	}
	// The slot is hostage and the queue holds 2 with a 100ms expiry: at
	// least flood-3 requests must have been shed outright, and none can
	// have been served while the gate was closed.
	if counts[http.StatusOK] != 0 {
		t.Fatalf("%d requests served while the only slot was hostage: %v", counts[http.StatusOK], counts)
	}
	shed := counts[http.StatusTooManyRequests] + counts[http.StatusServiceUnavailable]
	if shed != flood {
		t.Fatalf("flood outcomes don't balance: %v", counts)
	}
	if counts[http.StatusServiceUnavailable] < flood-3 {
		t.Fatalf("queue of 2 shed only %d immediately: %v", counts[http.StatusServiceUnavailable], counts)
	}

	close(gate)
	hostage.Wait()

	// Recovery: with the slot free, the same session serves again.
	if out, errText, _ := c.exec(token, "ls"); errText != "" || out == "" {
		t.Fatalf("exec after flood: %q / %q", out, errText)
	}
	st := getStats(t, hc, ts.URL)
	if st.ShedRequests < uint64(flood) {
		t.Fatalf("shed counter %d < flood %d", st.ShedRequests, flood)
	}
}

// TestChaosDeadlineNeverUnmapsUnderReader is the PR invariant at its
// sharpest: when a deadline kills a session whose worker is still inside
// the engine — and that session holds the LAST reference on its snapshot —
// the release (and so the munmap, for mapped databases) must not happen
// until the worker drains. Releasing at the 504 would hand unmapped memory
// to a goroutine mid-read.
func TestChaosDeadlineNeverUnmapsUnderReader(t *testing.T) {
	gate := make(chan struct{})
	stalled := make(chan struct{})
	snap := mappedSnapshot(t, fixtureBytes(t))
	unmapped := make(chan struct{})
	snap.OnLastRelease(func() { close(unmapped) })

	srv := NewWithConfig(snap, Config{Jobs: 1, ExecTimeout: 50 * time.Millisecond})
	srv.testExecHook = func(line string) {
		if strings.Contains(line, "STALL") {
			close(stalled)
			<-gate
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()
	c := &client{t: t, base: ts.URL, hc: hc}

	token := c.createSession()
	// Drop the test's own reference: the session now holds the last one,
	// so the session's close is exactly the snapshot's release point.
	snap.Release()

	status, _ := postJSON(t, hc, ts.URL+"/v1/sessions/"+token+"/exec", map[string]string{"line": "ls STALL"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("stalled exec = %d, want 504", status)
	}
	<-stalled
	// The 504 is out but the worker is still wedged inside the session:
	// the snapshot must still be alive.
	select {
	case <-unmapped:
		t.Fatal("snapshot released while a worker was still inside the session")
	case <-time.After(100 * time.Millisecond):
	}
	// Unwedge the worker; the reaper now drains it and closes the session,
	// which is when the last reference — and the mapping — may go.
	close(gate)
	select {
	case <-unmapped:
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot never released after the worker drained")
	}
}

// TestChaosPanicReleasesQueuedRequest: a panic must not poison the
// session's request lock. A request already past the token lookup and
// queued behind the panicking command must complete promptly — served, or
// refused with the typed dead-session 404 — never wedge until its own
// deadline leaks a goroutine and an admission slot.
func TestChaosPanicReleasesQueuedRequest(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	srv := NewWithConfig(mappedSnapshot(t, fixtureBytes(t)), Config{Jobs: 1, ExecTimeout: 10 * time.Second})
	defer srv.Close()
	srv.testExecHook = func(line string) {
		if strings.Contains(line, "BOOM") {
			close(entered)
			<-gate
			panic("injected chaos panic")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()
	c := &client{t: t, base: ts.URL, hc: hc}
	token := c.createSession()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _ := postJSON(t, hc, ts.URL+"/v1/sessions/"+token+"/exec", map[string]string{"line": "ls BOOM"})
		if status != http.StatusInternalServerError {
			t.Errorf("panicking exec = %d, want 500", status)
		}
	}()
	<-entered

	// Queue a second request behind the held session lock, then let the
	// first one panic under it.
	queued := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _ := postJSON(t, hc, ts.URL+"/v1/sessions/"+token+"/exec", map[string]string{"line": "ls"})
		queued <- status
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the session lock
	close(gate)

	select {
	case status := <-queued:
		if status != http.StatusOK && status != http.StatusNotFound {
			t.Fatalf("queued request after panic = %d, want 200 or 404", status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request queued behind a panic wedged on the poisoned session lock")
	}
	wg.Wait()
	if st := getStats(t, hc, ts.URL); st.ExecTimeouts != 0 {
		t.Fatalf("queued request hit its deadline instead of draining: %+v", st)
	}
}
