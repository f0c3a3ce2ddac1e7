package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
)

// writeDB stores the Figure 1 worked example as a database in both
// formats and returns the paths.
func writeDB(t *testing.T, dir string) (binPath, xmlPath string) {
	t.Helper()
	e := expdb.New(core.Fig1Tree())
	binPath = filepath.Join(dir, "fig1.db")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	xmlPath = filepath.Join(dir, "fig1.xml")
	f, err = os.Create(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteXML(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return binPath, xmlPath
}

// captureStdout runs f with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, f func() error) (string, error) { return capture(t, f, &os.Stdout) }

// captureStderr runs f with os.Stderr redirected to a pipe.
func captureStderr(t *testing.T, f func() error) (string, error) { return capture(t, f, &os.Stderr) }

// capture runs f with every one of files redirected to one pipe, read as f
// writes, so what they print keeps its order.
func capture(t *testing.T, f func() error, files ...**os.File) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		read <- data
	}()
	old := make([]*os.File, len(files))
	for i, file := range files {
		old[i], *file = *file, w
	}
	ferr := f()
	w.Close()
	for i, file := range files {
		*file = old[i]
	}
	return string(<-read), ferr
}

// feed puts script on os.Stdin until the test ends.
func feed(t *testing.T, script string) {
	path := filepath.Join(t.TempDir(), "script")
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = in
	t.Cleanup(func() { os.Stdin = old; in.Close() })
}

// interactive runs hpcviewer with args, script on its stdin, and returns
// what it wrote to stdout and to stderr.
func interactive(t *testing.T, script string, args ...string) (stdout, stderr string, err error) {
	feed(t, script)
	stderr, err = captureStderr(t, func() (err error) {
		stdout, err = captureStdout(t, func() error { return run(args) })
		return err
	})
	return stdout, stderr, err
}

func TestViewsFromBothFormats(t *testing.T) {
	dir := t.TempDir()
	binPath, xmlPath := writeDB(t, dir)
	for _, db := range []string{binPath, xmlPath} {
		for _, view := range []string{"cc", "callers", "flat"} {
			out, err := captureStdout(t, func() error {
				return run([]string{"-db", db, "-view", view})
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", db, view, err)
			}
			if !strings.Contains(out, "cost (I)") {
				t.Fatalf("%s/%s output:\n%s", db, view, out)
			}
		}
	}
}

func TestHotPathFlag(t *testing.T) {
	dir := t.TempDir()
	binPath, _ := writeDB(t, dir)
	out, err := captureStdout(t, func() error {
		return run([]string{"-db", binPath, "-hotpath", "cost"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "hot path (metric cost") {
		t.Fatalf("hot path banner missing:\n%s", out)
	}
	if !strings.Contains(out, "file2.c: 9") {
		t.Fatalf("hot path endpoint missing:\n%s", out)
	}
}

func TestDerivedAndSortFlags(t *testing.T) {
	dir := t.TempDir()
	binPath, _ := writeDB(t, dir)
	out, err := captureStdout(t, func() error {
		return run([]string{"-db", binPath, "-derived", "double=$0*2", "-metrics"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "double") {
		t.Fatalf("derived metric not listed:\n%s", out)
	}
	if _, err := captureStdout(t, func() error {
		return run([]string{"-db", binPath, "-sort", "cost:excl", "-view", "flat", "-flatten", "2"})
	}); err != nil {
		t.Fatal(err)
	}
}

// viewRows splits one rendered view into its rows: each row's scope (with
// its indentation, after the first skip characters) and its cells. Cells
// are right-aligned under the header's column names, so they start where
// the first column's field starts whatever prefix the rows carry.
func viewRows(t *testing.T, render string, skip int) [][2]string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(render, "\n"), "\n")
	header := lines[0]
	first := strings.Index(header, "cost (I)") + len("cost (I)")
	width := strings.Index(header, "cost (E)") + len("cost (E)") - first
	cells := first - width
	var rows [][2]string
	for _, line := range lines[2:] {
		if len(line) < cells {
			t.Fatalf("row %q ends inside its scope column:\n%s", line, render)
		}
		rows = append(rows, [2]string{strings.TrimRight(line[skip:cells], " "), line[cells:]})
	}
	return rows
}

// TestDerivedBatchMatchesInteractive: a -derived formula shows the same
// value on every row of the Flat and Callers Views whether hpcviewer prints
// the view in batch or an -interactive session expands it. sq = $0*$0 is
// not linear: g's rows cost 9, so they show 81, where a sum of g's two
// instances' values would show 6² + 3² = 45.
func TestDerivedBatchMatchesInteractive(t *testing.T) {
	dir := t.TempDir()
	binPath, _ := writeDB(t, dir)
	for _, view := range []string{"flat", "callers"} {
		batch, err := captureStdout(t, func() error {
			return run([]string{"-db", binPath, "-derived", "sq=$0*$0", "-view", view})
		})
		if err != nil {
			t.Fatal(err)
		}
		session, _, err := interactive(t, "view "+view+"\nexpandall\nquit\n", "-db", binPath, "-derived", "sq=$0*$0", "-interactive")
		if err != nil {
			t.Fatal(err)
		}
		// The renders after the prompts: the view, then expandall's.
		renders := strings.Split(session, "hpcviewer> ")
		if len(renders) != 4 {
			t.Fatalf("%s: want three prompts in the session:\n%s", view, session)
		}
		// Batch rows start with a blank, session rows with "%3d  " and an
		// expansion mark.
		want, got := viewRows(t, batch, 1), viewRows(t, renders[2], 6)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows in the session, %d in batch:\n%s\n%s", view, len(got), len(want), renders[2], batch)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s row %d: session shows %q, batch %q", view, i, got[i], want[i])
			}
		}
		for _, row := range want {
			if strings.TrimSpace(row[0]) == "g" {
				if cells := strings.Fields(row[1]); cells[len(cells)-2] != "81" {
					t.Errorf("%s: g's sq (I) reads %s, want 81", view, cells[len(cells)-2])
				}
				break
			}
		}
	}
}

func TestHTMLReport(t *testing.T) {
	dir := t.TempDir()
	binPath, _ := writeDB(t, dir)
	out := filepath.Join(dir, "report.html")
	if _, err := captureStdout(t, func() error {
		return run([]string{"-db", binPath, "-html", out, "-hotpath", "cost"})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"<!DOCTYPE html>", "Calling Context View", "Callers View", "Flat View", "hot"} {
		if !strings.Contains(s, want) {
			t.Fatalf("HTML report missing %q", want)
		}
	}
}

func TestViewerErrors(t *testing.T) {
	dir := t.TempDir()
	binPath, _ := writeDB(t, dir)
	bad := filepath.Join(dir, "bad.db")
	if err := os.WriteFile(bad, []byte("nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{},                                      // missing -db
		{"-db", filepath.Join(dir, "ghost")},    // missing file
		{"-db", bad},                            // garbage file
		{"-db", binPath, "-view", "martian"},    // bad view
		{"-db", binPath, "-sort", "NOPE"},       // bad sort metric
		{"-db", binPath, "-hotpath", "NOPE"},    // bad hotpath metric
		{"-db", binPath, "-derived", "novalue"}, // bad derived
	}
	for _, args := range cases {
		if _, err := captureStdout(t, func() error { return run(args) }); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
