package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt")

// TestRowsMatchGolden runs every experiment and compares the printed table
// with testdata/golden.txt, except the E-OVH rows: they time the sampler
// and count the heap allocations of the whole process, which move with the
// machine and the race detector. Regenerate with
// `go test ./cmd/experiments -update`.
func TestRowsMatchGolden(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = run()
	os.Stdout = stdout
	w.Close()
	out := string(<-read)
	if err != nil {
		t.Fatal(err)
	}
	var kept strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "E-OVH ") {
			kept.WriteString(line)
		}
	}
	got := kept.String()
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("experiments print:\n%s\nwant (testdata/golden.txt):\n%s", got, want)
	}
}
