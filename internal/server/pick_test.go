package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expdb"
)

func publishBytes(t *testing.T, c *catalog.Catalog, key catalog.Key, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "exp.db")
	err := expdb.WriteFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(key, path); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, hc *http.Client, url string, dst any) int {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dst != nil {
		if err := json.Unmarshal(data, dst); err != nil {
			t.Fatalf("bad JSON (%v): %s", err, data)
		}
	}
	return resp.StatusCode
}

func TestPickEndpoint(t *testing.T) {
	cat := catalog.New(catalog.Config{MaxGenerations: 10})
	publishBytes(t, cat, catalog.Key{Service: "svc", Run: "r", Ts: 1}, fixtureAt(t, 4, false))
	publishBytes(t, cat, catalog.Key{Service: "svc", Run: "r", Ts: 2}, fixtureAt(t, 6, false))
	publishBytes(t, cat, catalog.Key{Service: "svc", Run: "r", Ts: 3}, fixtureAt(t, 2, false))
	srv := NewWithConfig(nil, Config{Catalog: cat})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := ts.Client()

	cases := []struct {
		query  string
		wantTs int64
	}{
		{"series=svc/r", 3},
		{"series=svc/r&strategy=most-samples", 2},
		{"series=svc/r&strategy=p50", 1},
	}
	for _, tc := range cases {
		var p pickResponse
		if status := getJSON(t, hc, ts.URL+"/v1/pick?"+tc.query, &p); status != http.StatusOK {
			t.Fatalf("%s: status %d", tc.query, status)
		}
		if p.Ts != tc.wantTs {
			t.Fatalf("%s -> @%d, want @%d", tc.query, p.Ts, tc.wantTs)
		}
	}
	if status := getJSON(t, hc, ts.URL+"/v1/pick?series=svc/r&strategy=zap", nil); status != http.StatusBadRequest {
		t.Fatalf("bad strategy status %d", status)
	}
	if status := getJSON(t, hc, ts.URL+"/v1/pick?series=nope&strategy=p50", nil); status != http.StatusNotFound {
		t.Fatalf("unknown series status %d", status)
	}
	if status := getJSON(t, hc, ts.URL+"/v1/pick", nil); status != http.StatusBadRequest {
		t.Fatalf("missing series status %d", status)
	}
}
