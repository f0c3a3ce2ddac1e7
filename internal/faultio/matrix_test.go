package faultio_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/diff"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/faultio"
	"repro/internal/ingest"
	"repro/internal/lower"
	"repro/internal/merge"
	"repro/internal/metric"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/sampler"
	"repro/internal/structfile"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The fault-injection matrix: every workload's measurement files and
// experiment databases, in both format versions, under truncation and
// byte-corruption sweeps. The invariant is the robustness contract of the
// ingestion pipeline — a damaged input produces a clean typed error or a
// documented degraded result, never a panic or a hang.

// artifact is one on-disk byte image plus the decoder contract for it.
type artifact struct {
	name string
	data []byte
	// decode parses data, reporting (degraded, err). degraded means the
	// open succeeded but carried notes about dropped sections.
	decode func(data []byte) (bool, error)
	// checksummed formats must detect any single-byte corruption; v1
	// formats only promise not to crash (a flipped byte may decode into
	// different, internally consistent data).
	checksummed bool
}

func decodeProfile(data []byte) (bool, error) {
	_, err := profile.Read(bytes.NewReader(data))
	return false, err
}

// decodeTracedProfile additionally requires the trace section the capture
// wrote to still be present and scan cleanly. A flipped section-id byte
// turns the section into an unknown kind the reader skips by design
// (forward compatibility), so "the trace vanished" is the detectable
// symptom for that corruption.
func decodeTracedProfile(data []byte) (bool, error) {
	if _, err := profile.Read(bytes.NewReader(data)); err != nil {
		return false, err
	}
	count, _, err := profile.ScanTrace(bytes.NewReader(data), nil)
	if err != nil {
		return false, err
	}
	if count == 0 {
		return false, fmt.Errorf("trace section lost")
	}
	return false, nil
}

func decodeDB(data []byte) (bool, error) {
	e, err := expdb.Read(bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	return len(e.Notes) > 0, nil
}

// stage writes the bytes to a file of their own.
func stage(data []byte) (path string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "faultdb")
	if err != nil {
		return "", nil, err
	}
	path = filepath.Join(dir, "experiment.db")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return path, func() { os.RemoveAll(dir) }, nil
}

// decodeOpenedDB stages the bytes as a file and opens it the way the tools
// do, through engine.Open — the format sniff on a possibly damaged head,
// then the whole decode — and asks the snapshot for everything a tool
// would: every column, the quarantine record, the notes.
func decodeOpenedDB(data []byte) (bool, error) {
	path, cleanup, err := stage(data)
	if err != nil {
		return false, err
	}
	defer cleanup()
	snap, err := engine.Open(path)
	if err != nil {
		return false, err
	}
	defer snap.Close()
	if err := snap.FaultAll(); err != nil {
		return len(snap.Notes()) > 0, err
	}
	if _, err := snap.Provenance(); err != nil {
		return len(snap.Notes()) > 0, err
	}
	return len(snap.Notes()) > 0, nil
}

// decodeMappedDB stages the bytes as a file and opens them through the
// zero-copy mapped path, then touches everything a viewer eventually
// would: metadata, every column's checksum pass, provenance. The v3
// contract: metadata damage is a typed error, column and provenance damage
// degrade with notes, and nothing ever faults the process (all index ranges
// are validated before the mapping is trusted).
func decodeMappedDB(data []byte) (bool, error) {
	path, cleanup, err := stage(data)
	if err != nil {
		return false, err
	}
	defer cleanup()
	db, err := expdb.OpenMapped(path)
	if err != nil {
		return false, err
	}
	defer db.Close()
	e, err := db.Experiment()
	if err != nil {
		return false, err
	}
	for _, d := range e.Tree.Reg.Columns() {
		if err := db.NeedColumn(d.ID); err != nil {
			return len(e.Notes) > 0, err
		}
	}
	if _, err := db.Provenance(); err != nil {
		return len(e.Notes) > 0, err
	}
	if err := db.VerifyAll(); err != nil {
		return len(e.Notes) > 0, err
	}
	// Trace/pyramid/tracemeta damage must degrade — dropped ranks with
	// notes — while profile views stay intact, and whatever traces survive
	// must still render a view without failing.
	tv, err := db.Trace()
	if err != nil {
		return len(e.Notes) > 0, err
	}
	if tv != nil && len(tv.TraceRanks()) > 0 {
		if _, verr := trace.View(tv, 0, 0, nil, 32, 0); verr != nil {
			return len(e.Notes) > 0, verr
		}
	}
	return len(e.Notes) > 0, nil
}

// buildArtifacts simulates one workload at a small rank count and encodes
// its first rank profile and merged database in every format version.
func buildArtifacts(t *testing.T, name string) []artifact {
	t.Helper()
	spec, err := workloads.ByName(name)
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
	// Trace capture is on so the profile-v2 artifact carries a trace
	// section and the v3 artifacts carry trace, pyramid and tracemeta
	// sections — the sweep then covers every section kind of every format.
	profs, err := mpi.Run(im, mpi.Config{
		NRanks: 2,
		Events: sampler.DefaultEvents(spec.Period),
		Trace:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := merge.Profiles(doc, profs)
	if err != nil {
		t.Fatal(err)
	}
	// Summary columns populate the overrides section; a provenance record
	// populates section 6, so the sweep exercises every v2 section kind.
	for _, d := range res.Tree.Reg.Columns() {
		if d.Kind == metric.Raw {
			if err := res.AddSummaries(d.ID, metric.OpMean, metric.OpMax); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	exp := expdb.FromMerge(res)
	if err := expdb.TraceRanksFromProfiles(exp, doc, profs); err != nil {
		t.Fatal(err)
	}
	exp.Provenance = &ingest.Report{Attempted: 3, Merged: 2, Bad: []ingest.BadRank{
		{Path: "lost.cpprof", Rank: 2, Offset: 5, Class: ingest.ClassTruncated, Message: "unexpected EOF"},
	}}

	enc := func(name string, f func(*bytes.Buffer) error, decode func([]byte) (bool, error), sum bool) artifact {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return artifact{name: name, data: buf.Bytes(), decode: decode, checksummed: sum}
	}
	p := profs[0]
	return []artifact{
		enc("profile-v2", func(b *bytes.Buffer) error { return p.Write(b) }, decodeTracedProfile, true),
		enc("profile-v1", func(b *bytes.Buffer) error { return p.WriteV1(b) }, decodeProfile, false),
		enc("expdb-v2", func(b *bytes.Buffer) error { return exp.WriteBinary(b) }, decodeDB, true),
		enc("expdb-v2-open", func(b *bytes.Buffer) error { return exp.WriteBinary(b) }, decodeOpenedDB, true),
		enc("expdb-v1", func(b *bytes.Buffer) error { return exp.WriteBinaryV1(b) }, decodeDB, false),
		enc("expdb-v3", func(b *bytes.Buffer) error { return exp.WriteBinaryV3(b) }, decodeDB, true),
		enc("expdb-v3-mapped", func(b *bytes.Buffer) error { return exp.WriteBinaryV3(b) }, decodeMappedDB, true),
	}
}

// sweepOffsets picks byte positions covering both ends densely and the
// interior with an even stride, bounding the quadratic sweep cost.
func sweepOffsets(n, samples int) []int {
	seen := make(map[int]bool)
	var offs []int
	add := func(i int) {
		if i >= 0 && i < n && !seen[i] {
			seen[i] = true
			offs = append(offs, i)
		}
	}
	for i := 0; i < 16; i++ {
		add(i)
		add(n - 1 - i)
	}
	if samples > 0 {
		step := n / samples
		if step < 1 {
			step = 1
		}
		for i := 0; i < n; i += step {
			add(i)
		}
	}
	return offs
}

// frameOffsets walks a v2 frame and returns one offset inside every
// structural element: each id byte, length varint, payload and CRC
// trailer, plus magic and end marker — "every section of every file".
func frameOffsets(data []byte, magicLen int) []int {
	offs := []int{0, magicLen - 1} // magic
	off := magicLen
	for off < len(data) {
		offs = append(offs, off) // id byte (or end marker)
		if data[off] == 0 {
			break
		}
		n, vlen := binary.Uvarint(data[off+1:])
		if vlen <= 0 {
			break
		}
		offs = append(offs, off+1) // length varint
		payload := off + 1 + vlen
		if n > 0 {
			offs = append(offs, payload+int(n)/2, payload, payload+int(n)-1)
		}
		offs = append(offs, payload+int(n), payload+int(n)+3) // CRC trailer
		off = payload + int(n) + 4
	}
	return offs
}

// v3Offsets parses the v3 trailer and index (both fixed-width) and returns
// one offset inside every structural element: the magic, each section's
// first, middle and last byte, every index entry, and every trailer byte —
// the aligned-layout analogue of frameOffsets.
func v3Offsets(data []byte) []int {
	n := len(data)
	if n < 40 {
		return nil
	}
	offs := []int{0, 7} // magic
	tr := data[n-32:]
	indexOff := int(binary.LittleEndian.Uint64(tr[0:8]))
	count := int(binary.LittleEndian.Uint64(tr[8:16]))
	if indexOff < 8 || indexOff > n-32 || count < 0 || count > (n-32-indexOff)/32 {
		return offs
	}
	for i := 0; i < count; i++ {
		en := indexOff + i*32
		off := int(binary.LittleEndian.Uint64(data[en+8 : en+16]))
		length := int(binary.LittleEndian.Uint64(data[en+16 : en+24]))
		if off >= 8 && length > 0 && off+length <= indexOff {
			offs = append(offs, off, off+length/2, off+length-1)
		}
		offs = append(offs, en, en+15, en+31) // the index entry itself
	}
	for i := n - 32; i < n; i++ {
		offs = append(offs, i) // every trailer byte
	}
	return offs
}

// decodeSafely runs decode with panic containment so a crash is reported
// as a test failure naming the byte offset, not a process abort.
func decodeSafely(t *testing.T, a artifact, data []byte, what string) (degraded bool, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s/%s: PANIC: %v", a.name, what, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return a.decode(data)
}

func TestFaultMatrix(t *testing.T) {
	for _, workload := range workloads.Names() {
		t.Run(workload, func(t *testing.T) {
			arts := buildArtifacts(t, workload)
			for _, a := range arts {
				a := a
				t.Run(a.name+"/baseline", func(t *testing.T) {
					degraded, err := decodeSafely(t, a, a.data, "baseline")
					if err != nil {
						t.Fatalf("pristine file rejected: %v", err)
					}
					if degraded {
						t.Fatal("pristine file opened degraded")
					}
				})
				t.Run(a.name+"/truncate", func(t *testing.T) {
					for _, cut := range sweepOffsets(len(a.data), 64) {
						_, err := decodeSafely(t, a, faultio.Truncate(a.data, cut), fmt.Sprintf("cut@%d", cut))
						if err == nil {
							t.Errorf("truncation at %d/%d read cleanly", cut, len(a.data))
						}
					}
				})
				t.Run(a.name+"/corrupt", func(t *testing.T) {
					offs := sweepOffsets(len(a.data), 64)
					if a.checksummed && strings.HasPrefix(a.name, "expdb-v3") {
						// Aligned layout: hit every section, index entry
						// and trailer byte.
						offs = append(offs, v3Offsets(a.data)...)
					} else if a.checksummed {
						// Also hit every structural element of the frame:
						// magic ("CPP2" is 4 bytes, "CPDB2" is 5), ids,
						// lengths, payloads, CRC trailers, end marker.
						magicLen := 4
						if strings.HasPrefix(a.name, "expdb-v2") {
							magicLen = 5
						}
						offs = append(offs, frameOffsets(a.data, magicLen)...)
					}
					for _, off := range offs {
						mut := faultio.Corrupt(a.data, off, 0x10)
						degraded, err := decodeSafely(t, a, mut, fmt.Sprintf("flip@%d", off))
						if !a.checksummed {
							continue // v1: no-crash is the whole contract
						}
						if err == nil && !degraded {
							t.Errorf("corruption at %d/%d went undetected", off, len(a.data))
						}
					}
				})
			}
			// A quarantined (-keep-going) database must not diff silently:
			// the comparison covers only its merged ranks, and the diff has
			// to carry that caveat as a provenance note. The round trip
			// through v2 bytes also proves the quarantine record survives
			// serialization into the diff path.
			t.Run("diff-provenance", func(t *testing.T) {
				var raw []byte
				for _, a := range arts {
					if a.name == "expdb-v2" {
						raw = a.data
					}
				}
				readExp := func() *expdb.Experiment {
					e, err := expdb.Read(bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				clean := readExp()
				clean.Provenance = nil
				dirty := readExp()
				if dirty.Provenance == nil || dirty.Provenance.Clean() {
					t.Fatal("round-tripped database lost its quarantine record")
				}
				res, err := diff.Diff(diff.Config{},
					diff.Input{Label: "clean", Exp: clean},
					diff.Input{Label: "dirty", Exp: dirty})
				if err != nil {
					t.Fatal(err)
				}
				var found bool
				for _, n := range res.Exp.Notes {
					if strings.Contains(n, "input clean") {
						t.Errorf("clean input blamed: %q", n)
					}
					if strings.Contains(n, "input dirty is quarantined") &&
						strings.Contains(n, "merged ranks only") {
						found = true
					}
				}
				if !found {
					t.Fatalf("quarantined-vs-clean diff lacks a provenance note: %v", res.Exp.Notes)
				}
				// The note must ride the report too, whichever side is dirty.
				rev, err := diff.Diff(diff.Config{},
					diff.Input{Label: "dirty", Exp: readExp()},
					diff.Input{Label: "clean", Exp: clean})
				if err != nil {
					t.Fatal(err)
				}
				rep, err := rev.Report(diff.ReportOptions{})
				if err != nil {
					t.Fatal(err)
				}
				found = false
				for _, n := range rep.Notes {
					found = found || strings.Contains(n, "input dirty is quarantined")
				}
				if !found {
					t.Fatalf("report dropped the provenance note: %v", rep.Notes)
				}
			})
		})
	}
}

// Streaming faults: the readers must also behave when the transport —
// not the stored bytes — fails or dribbles.
func TestReaderFaults(t *testing.T) {
	for _, a := range buildArtifacts(t, "toy") {
		a := a
		t.Run(a.name+"/ioerror", func(t *testing.T) {
			r := faultio.ErrReaderAt(bytes.NewReader(a.data), int64(len(a.data)/2), nil)
			var err error
			if a.name == "profile-v1" || a.name == "profile-v2" {
				_, err = profile.Read(r)
			} else {
				_, err = expdb.Read(r)
			}
			if err == nil {
				t.Fatal("mid-file I/O error ignored")
			}
		})
		t.Run(a.name+"/shortreads", func(t *testing.T) {
			r := faultio.ShortReader(bytes.NewReader(a.data), 7)
			var err error
			if a.name == "profile-v1" || a.name == "profile-v2" {
				_, err = profile.Read(r)
			} else {
				_, err = expdb.Read(r)
			}
			if err != nil {
				t.Fatalf("short reads broke a pristine file: %v", err)
			}
		})
	}
}
