package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/ingest"
	"repro/internal/metric"
)

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
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	feed(t, "ls\nquit\n")
	out, err := capture(t, func() error { return run([]string{"-db", path, "-interactive"}) }, &os.Stdout, &os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	warn, view := strings.Index(out, "hpcviewer: warning: column section"), strings.Index(out, "cost (I)")
	if warn < 0 || view < 0 || warn > view {
		t.Fatalf("want the column warning before the first render:\n%s", out)
	}
}

// TestTruncatedDatabaseFaultIsOneError: a v3 database truncated while
// `hpcviewer -interactive` has it mapped makes the next command that reads
// a lost page fault. The viewer must print one error line that names the
// database and exit 1, whether the page is read on the session's goroutine
// (`view flat` builds the Flat View there) or on the Callers View's
// expansion workers (`expandall`). Each script runs as a child process
// (this test binary, run again), so a fault that kills it fails this test
// rather than the test binary; the child is fed the script's first
// commands, and truncated once their renders are out.
func TestTruncatedDatabaseFaultIsOneError(t *testing.T) {
	if db := os.Getenv("HPCVIEWER_FAULT_DB"); db != "" {
		os.Args = []string{"hpcviewer", "-db", db, "-interactive"}
		main()
		return
	}
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
	mapped := sn.Mapped()
	sn.Close()
	if !mapped {
		t.Skip("the database is read into memory, not mapped: truncating the file faults nothing")
	}

	for _, script := range []struct{ name, before, after string }{
		{"view flat", "", "view flat\n"},
		{"callers expandall", "view callers\n", "expandall\n"},
	} {
		t.Run(script.name, func(t *testing.T) {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestTruncatedDatabaseFaultIsOneError$")
			cmd.Env = append(os.Environ(), "HPCVIEWER_FAULT_DB="+path)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdin, err := cmd.StdinPipe()
			if err != nil {
				t.Fatal(err)
			}
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// A prompt follows the first render and each command's output.
			io.WriteString(stdin, script.before)
			for out, prompts := bufio.NewReader(stdout), 0; prompts <= strings.Count(script.before, "\n"); {
				chunk, err := out.ReadString('>')
				if err != nil {
					cmd.Wait()
					t.Fatalf("the viewer ended before it ran %q: %v\n%s", script.before, err, stderr.Bytes())
				}
				if strings.HasSuffix(chunk, "hpcviewer>") {
					prompts++
				}
			}
			if err := os.Truncate(path, 4096); err != nil {
				t.Fatal(err)
			}
			io.WriteString(stdin, script.after+"quit\n")
			stdin.Close()
			io.Copy(io.Discard, stdout)
			err = cmd.Wait()
			var exit *exec.ExitError
			lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || len(lines) != 1 || !strings.HasPrefix(lines[0], "error: ") || !strings.Contains(lines[0], path) {
				t.Fatalf("after the truncation the viewer ended with %v and printed:\n%s\nwant exit status 1 and one error line naming %s", err, stderr.Bytes(), path)
			}
			t.Logf("the viewer printed %q", lines[0])
		})
	}
}
