package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/expdb"
)

func TestPickStrategies(t *testing.T) {
	dir := t.TempDir()
	c := New(Config{MaxGenerations: 10})
	defer c.Close()

	// Three generations with distinct total costs: ranks 2 < 4 < 6, and
	// publish order deliberately not cost order.
	for i, tc := range []struct {
		ts    int64
		ranks int
	}{{1, 4}, {2, 6}, {3, 2}} {
		path := filepath.Join(dir, "gen", string(rune('a'+i)), "exp.db")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data := fixtureV3At(t, tc.ranks)
		err := expdb.WriteFileAtomic(path, func(f *os.File) error {
			_, err := f.Write(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Publish(Key{Service: "svc", Run: "r", Ts: tc.ts}, path); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		strategy string
		wantTs   int64
	}{
		{"", 3}, // latest = newest generation
		{"latest", 3},
		{"most-samples", 2}, // 6 ranks captured the most work
		{"p50", 1},          // median cost is the 4-rank run
	}
	for _, tc := range cases {
		key, err := c.Pick("svc/r", tc.strategy)
		if err != nil {
			t.Fatalf("Pick(%q): %v", tc.strategy, err)
		}
		if key.Ts != tc.wantTs {
			t.Fatalf("Pick(%q) = @%d, want @%d", tc.strategy, key.Ts, tc.wantTs)
		}
	}

	// Measures are memoized: a second pick must not open anything.
	opensBefore := c.Stats().Opens
	if _, err := c.Pick("svc/r", "p50"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Opens; got != opensBefore {
		t.Fatalf("memoized pick re-opened databases (%d -> %d opens)", opensBefore, got)
	}

	if _, err := c.Pick("svc/r", "bogus"); !errors.Is(err, ErrBadStrategy) {
		t.Fatalf("bad strategy error = %v, want ErrBadStrategy", err)
	}
	if _, err := c.Pick("nope", "p50"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown series error = %v, want ErrNotFound", err)
	}
}
