package engine

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/render"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestGoldenViews locks the engine's rendered presentation of the paper's
// worked example in all three views — Calling Context fully expanded,
// Callers fully expanded, and Flat flattened once — against golden files.
// The frontends (CLI and HTTP) are deliberately format-free, so these
// goldens pin what every user of the engine sees. Regenerate deliberately
// with `go test ./internal/engine -run TestGoldenViews -update`.
func TestGoldenViews(t *testing.T) {
	cases := []struct {
		name   string
		script []string
	}{
		{"cc", []string{"expandall"}},
		{"callers", []string{"view callers", "expandall", "sort cost"}},
		{"flat", []string{"view flat", "flatten", "sort cost:excl"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSession(core.Fig1Tree(), nil)
			defer s.Close()
			for _, line := range tc.script {
				if resp := s.Do(Request{Line: line}); resp.Err != "" {
					t.Fatalf("%q: %s", line, resp.Err)
				}
			}
			var b strings.Builder
			if err := s.Render(&b, render.Options{}); err != nil {
				t.Fatal(err)
			}
			got := b.String()

			path := filepath.Join("testdata", "golden_"+tc.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("golden mismatch for %s view:\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, got, want)
			}
		})
	}
}
