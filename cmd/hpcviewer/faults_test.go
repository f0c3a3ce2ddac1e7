package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
	"repro/internal/ingest"
)

// captureStderr runs f with os.Stderr redirected to a pipe.
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	ferr := f()
	w.Close()
	os.Stderr = old
	var data []byte
	buf := make([]byte, 4096)
	for {
		n, rerr := r.Read(buf)
		data = append(data, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return string(data), ferr
}

// quarantinedDB writes a v2 database carrying a merge provenance record
// and returns its path and raw bytes.
func quarantinedDB(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	e := expdb.New(core.Fig1Tree())
	e.Provenance = &ingest.Report{Attempted: 4, Merged: 3, Bad: []ingest.BadRank{
		{Path: "run/r0002.cpprof", Rank: 2, Offset: 99, Class: ingest.ClassTruncated, Message: "unexpected EOF"},
	}}
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "quarantined.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// A database produced by a -keep-going merge announces its provenance on
// stderr while the views render normally.
func TestViewerReportsProvenance(t *testing.T) {
	dir := t.TempDir()
	path, _ := quarantinedDB(t, dir)
	var out string
	errText, err := captureStderr(t, func() error {
		var ierr error
		out, ierr = captureStdout(t, func() error {
			return run([]string{"-db", path})
		})
		return ierr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errText, "merged 3/4 ranks") {
		t.Fatalf("provenance summary missing from stderr:\n%s", errText)
	}
	if !strings.Contains(out, "cost (I)") {
		t.Fatalf("view did not render:\n%s", out)
	}
}

// Damaging the optional provenance section degrades the open — the viewer
// warns and renders from the intact sections instead of failing.
func TestViewerOpensDegradedDB(t *testing.T) {
	dir := t.TempDir()
	_, data := quarantinedDB(t, dir)
	// Flip a payload byte of section 6 (provenance) by walking the frame
	// structure: magic, then id | uvarint len | payload | crc32c per section.
	off := len("CPDB2")
	for {
		if off >= len(data) || data[off] == 0 {
			t.Fatal("provenance section not found")
		}
		id := data[off]
		n, vlen := binary.Uvarint(data[off+1:])
		if vlen <= 0 {
			t.Fatal("bad frame")
		}
		payload := off + 1 + vlen
		if id == 6 {
			data[payload+int(n)/2] ^= 0xff
			break
		}
		off = payload + int(n) + 4
	}
	path := filepath.Join(dir, "degraded.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out string
	errText, err := captureStderr(t, func() error {
		var ierr error
		out, ierr = captureStdout(t, func() error {
			return run([]string{"-db", path})
		})
		return ierr
	})
	if err != nil {
		t.Fatalf("degraded database refused: %v", err)
	}
	if !strings.Contains(errText, "hpcviewer: warning:") || !strings.Contains(errText, "provenance") {
		t.Fatalf("degradation warning missing:\n%s", errText)
	}
	if !strings.Contains(out, "cost (I)") {
		t.Fatalf("view did not render:\n%s", out)
	}
}

// Unusable databases fail with an error naming the file, never a panic.
func TestViewerRejectsDamagedDB(t *testing.T) {
	dir := t.TempDir()
	_, good := quarantinedDB(t, dir)
	mk := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := map[string]string{
		"empty.db":     mk("empty.db", nil),
		"badmagic.db":  mk("badmagic.db", []byte("XXXXX not a database")),
		"truncated.db": mk("truncated.db", good[:len(good)*3/5]),
	}
	for name, path := range cases {
		if _, err := captureStderr(t, func() error {
			_, ierr := captureStdout(t, func() error { return run([]string{"-db", path}) })
			return ierr
		}); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error does not name the file: %v", name, err)
		}
	}
}

// An interactive session over a v3 database with a damaged column prints
// the column's warning when the database opens, before the first render.
func TestViewerInteractiveWarnsAtOpen(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := expdb.New(core.Fig1Tree()).WriteBinaryV3(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first column section (kind 7), found
	// through the index the trailer points at: trailer index offset u64
	// first, 32-byte entries with kind at 0, offset at 8, length at 16.
	data := buf.Bytes()
	idx := binary.LittleEndian.Uint64(data[len(data)-32:])
	for en := data[idx : len(data)-32]; ; en = en[32:] {
		if len(en) < 32 {
			t.Fatal("no column section")
		}
		if en[0] == 7 {
			data[binary.LittleEndian.Uint64(en[8:])+binary.LittleEndian.Uint64(en[16:])/2] ^= 0xff
			break
		}
	}
	path := filepath.Join(dir, "damaged.db")
	script := filepath.Join(dir, "script")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(script, []byte("ls\nquit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(script)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// Stdout and stderr share one pipe, so the output keeps their order.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	oldIn, oldOut, oldErr := os.Stdin, os.Stdout, os.Stderr
	os.Stdin, os.Stdout, os.Stderr = in, w, w
	err = run([]string{"-db", path, "-interactive"})
	os.Stdin, os.Stdout, os.Stderr = oldIn, oldOut, oldErr
	w.Close()
	out := string(<-read)
	if err != nil {
		t.Fatal(err)
	}
	warn, view := strings.Index(out, "hpcviewer: warning: column section"), strings.Index(out, "cost (I)")
	if warn < 0 || view < 0 || warn > view {
		t.Fatalf("want the column warning before the first render:\n%s", out)
	}
}
