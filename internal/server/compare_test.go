package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/expdb"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/mpi"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/workloads"
)

// fixtureAt serializes the toy workload merged at the given rank count, so
// compare tests get a genuine weak-scaling pair of lazily opened databases.
func fixtureAt(t *testing.T, ranks int) []byte {
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

// postJSON posts a JSON body and returns status and response bytes.
func postJSON(t *testing.T, hc *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestCompareEndpoint(t *testing.T) {
	srv := New(mappedSnapshot(t, fixtureAt(t, 2)), nil, 1)
	defer srv.Close()
	if err := srv.AddSnapshot("big", mappedSnapshot(t, fixtureAt(t, 6))); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddSnapshot("big", mappedSnapshot(t, fixtureAt(t, 6))); err == nil {
		t.Fatal("duplicate catalog name did not error")
	}
	if err := srv.AddSnapshot("bad name", nil); err == nil {
		t.Fatal("catalog name with a space did not error")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()

	// Catalog listing.
	resp, err := hc.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat catalogResponse
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cat.Databases) != 1 || cat.Databases[0] != "big" {
		t.Fatalf("catalog = %v, want [big]", cat.Databases)
	}

	// A weak-scaling compare of the served database against "big".
	status, data := postJSON(t, hc, ts.URL+"/v1/compare", map[string]any{"other": "big", "threshold": -1, "top": -1})
	if status != http.StatusOK {
		t.Fatalf("compare: status %d: %s", status, data)
	}
	var rep struct {
		Mode      string `json:"mode"`
		PerRank   bool   `json:"per_rank"`
		BaseRanks int    `json:"base_ranks"`
		Ranks     int    `json:"ranks"`
		Metric    string `json:"metric"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("compare response is not JSON: %v\n%s", err, data)
	}
	if rep.Mode != "weak" || !rep.PerRank || rep.BaseRanks != 2 || rep.Ranks != 6 {
		t.Fatalf("report header = %+v, want weak per-rank 2->6", rep)
	}

	// The same compare again hits the cached union and matches bytes.
	status2, data2 := postJSON(t, hc, ts.URL+"/v1/compare", map[string]any{"other": "big", "threshold": -1, "top": -1})
	if status2 != http.StatusOK || !bytes.Equal(data, data2) {
		t.Fatalf("repeat compare diverged (status %d)", status2)
	}
	srv.diffMu.Lock()
	cached := len(srv.diffs)
	srv.diffMu.Unlock()
	if cached != 1 {
		t.Fatalf("cached %d diffs, want 1", cached)
	}

	// Error shapes.
	for _, tc := range []struct {
		body map[string]any
		want int
	}{
		{map[string]any{}, http.StatusBadRequest},
		{map[string]any{"other": "nope"}, http.StatusNotFound},
		{map[string]any{"base": "nope", "other": "big"}, http.StatusNotFound},
		{map[string]any{"other": "big", "mode": "sideways"}, http.StatusBadRequest},
		{map[string]any{"other": "big", "metric": "WATTS"}, http.StatusUnprocessableEntity},
	} {
		status, data := postJSON(t, hc, ts.URL+"/v1/compare", tc.body)
		if status != tc.want {
			t.Fatalf("compare %v: status %d, want %d (%s)", tc.body, status, tc.want, data)
		}
	}
}

// TestSessionDiffOverHTTP drives the engine's diff command through the
// HTTP session surface: the catalog attached to server sessions is the
// same one the compare endpoint reads.
func TestSessionDiffOverHTTP(t *testing.T) {
	srv := New(mappedSnapshot(t, fixtureAt(t, 2)), nil, 1)
	defer srv.Close()
	if err := srv.AddSnapshot("big", mappedSnapshot(t, fixtureAt(t, 6))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, hc: ts.Client()}
	token := c.createSession()

	out, errText, _ := c.exec(token, "catalog")
	if errText != "" || !strings.Contains(out, "big") {
		t.Fatalf("catalog: %q / %q", out, errText)
	}
	out, errText, _ = c.exec(token, "diff big CYCLES weak")
	if errText != "" {
		t.Fatalf("diff: %s", errText)
	}
	if !strings.Contains(out, `vs B "big"`) || !strings.Contains(out, "mode weak") {
		t.Fatalf("diff banner missing: %q", out)
	}
	if !strings.Contains(out, "CYCLES[loss(B)") { // header may truncate the name
		t.Fatalf("rendered diff lacks the loss column: %q", out)
	}
	out, errText, _ = c.exec(token, "sort CYCLES[loss(B)]")
	if errText != "" || !strings.Contains(out, "scope") {
		t.Fatalf("sort over loss column: %q / %q", out, errText)
	}
	if _, errText, _ = c.exec(token, "back"); errText != "" {
		t.Fatalf("back: %s", errText)
	}
	if out, _, _ := c.exec(token, "metrics"); strings.Contains(out, "loss(") {
		t.Fatalf("back did not restore the original metrics: %q", out)
	}
}
