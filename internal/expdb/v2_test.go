package expdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/ingest"
	"repro/internal/metric"
)

// v2Bytes encodes an experiment in the v2 framed format.
func v2Bytes(t *testing.T, e *Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstSummaryCol returns the ID of the first summary column.
func firstSummaryCol(t *testing.T, e *Experiment) int {
	t.Helper()
	for _, d := range e.Tree.Reg.Columns() {
		if d.Kind == metric.Summary {
			return d.ID
		}
	}
	t.Fatal("fixture has no summary column")
	return -1
}

// maxAbsIncl returns the largest magnitude of column id over every scope's
// inclusive vector.
func maxAbsIncl(e *Experiment, id int) float64 {
	var m float64
	core.Walk(e.Tree.Root, func(n *core.Node) bool {
		if v := n.Incl.Get(id); v > m || -v > m {
			if v < 0 {
				v = -v
			}
			m = v
		}
		return true
	})
	return m
}

// corruptSection flips one payload byte of the section with the given id,
// locating it by walking the frame structure. Fails the test if the
// section is absent.
func corruptSection(t *testing.T, data []byte, id byte) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	off := len(dbMagicV2)
	for off < len(out) {
		secID := out[off]
		if secID == framing.EndMarker {
			break
		}
		n, vlen := binary.Uvarint(out[off+1:])
		if vlen <= 0 {
			t.Fatalf("bad frame at offset %d", off)
		}
		payloadStart := off + 1 + vlen
		if secID == id {
			if n == 0 {
				t.Fatalf("section %d has empty payload", id)
			}
			out[payloadStart+int(n)/2] ^= 0xff
			return out
		}
		off = payloadStart + int(n) + 4
	}
	t.Fatalf("section %d not found", id)
	return nil
}

func TestBinaryV1CompatRoundTrip(t *testing.T) {
	e := fixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinaryV1(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(dbMagic)) {
		t.Fatalf("WriteBinaryV1 magic = %q", buf.Bytes()[:5])
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	equalExperiments(t, e, got)
}

func TestBinaryV2Magic(t *testing.T) {
	e := fixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(dbMagicV2)) {
		t.Fatalf("WriteBinary magic = %q", buf.Bytes()[:5])
	}
}

func TestProvenanceRoundTrip(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 1024, Merged: 1021, Bad: []ingest.BadRank{
		{Path: "run/r0007.cpprof", Rank: 7, Offset: 123, Class: ingest.ClassCorrupt, Message: "bad magic"},
		{Path: "run/r0100.cpprof", Rank: -1, Offset: -1, Class: ingest.ClassUnreadable, Message: "permission denied"},
		{Path: "run/r0512.cpprof", Rank: 512, Offset: 4096, Class: ingest.ClassTruncated, Message: "unexpected EOF"},
	}}
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance == nil {
		t.Fatal("provenance lost")
	}
	p := got.Provenance
	if p.Attempted != 1024 || p.Merged != 1021 || len(p.Bad) != 3 {
		t.Fatalf("provenance = %+v", p)
	}
	for i, want := range e.Provenance.Bad {
		if p.Bad[i] != want {
			t.Fatalf("bad[%d] = %+v, want %+v", i, p.Bad[i], want)
		}
	}
	if want := "merged 1021/1024 ranks (3 quarantined: 1 corrupt, 1 truncated, 1 unreadable)"; p.Summary() != want {
		t.Fatalf("summary = %q, want %q", p.Summary(), want)
	}
}

func TestDamagedOverridesSectionDegrades(t *testing.T) {
	// fixture has summary columns, so an overrides section exists.
	e := fixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := corruptSection(t, buf.Bytes(), dbSecOverrides)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("damaged optional section should degrade, got error: %v", err)
	}
	const note = "overrides section failed its checksum; summary and computed columns were dropped"
	if len(got.Notes) != 1 || got.Notes[0] != note {
		t.Fatalf("notes = %q, want %q", got.Notes, note)
	}
	if m := maxAbsIncl(got, firstSummaryCol(t, got)); m != 0 {
		t.Fatalf("dropped summary column reads %g, want 0", m)
	}
	// The tree itself is intact — raw columns survive untouched.
	if got.Program != e.Program || got.NRanks != e.NRanks {
		t.Fatal("identity lost in degraded open")
	}
}

func TestDamagedProvenanceSectionDegrades(t *testing.T) {
	e := fixture(t)
	e.Provenance = &ingest.Report{Attempted: 4, Merged: 3, Bad: []ingest.BadRank{
		{Path: "x.cpprof", Rank: 1, Offset: 5, Class: ingest.ClassCorrupt, Message: "boom"},
	}}
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := corruptSection(t, buf.Bytes(), dbSecProvenance)
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("damaged provenance should degrade, got error: %v", err)
	}
	if got.Provenance != nil {
		t.Fatal("damaged provenance should be dropped")
	}
	const note = "provenance section failed its checksum; the quarantine record was dropped"
	if len(got.Notes) != 1 || got.Notes[0] != note {
		t.Fatalf("notes = %q, want %q", got.Notes, note)
	}
}

func TestDamagedRequiredSectionsAreFatal(t *testing.T) {
	e := fixture(t)
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id   byte
		name string
	}{
		{dbSecStrings, "strings"},
		{dbSecHeader, "header"},
		{dbSecMetrics, "metrics"},
		{dbSecTree, "tree"},
	} {
		data := corruptSection(t, buf.Bytes(), tc.id)
		_, err := Read(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("damaged %s section accepted", tc.name)
		}
		var se *SectionError
		if !errors.As(err, &se) {
			t.Fatalf("damaged %s section: error %T is not a SectionError: %v", tc.name, err, err)
		}
		if se.Section != tc.name {
			t.Fatalf("damaged %s section attributed to %q", tc.name, se.Section)
		}
	}
}

func TestV2TruncationAlwaysErrors(t *testing.T) {
	e := New(core.Fig1Tree())
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
}

func TestReadSniffsAllFormats(t *testing.T) {
	e := fixture(t)
	var v1, v2, xml bytes.Buffer
	if err := e.WriteBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteXML(&xml); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes(), "xml": xml.Bytes()} {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Read(%s): %v", name, err)
		}
		equalExperiments(t, e, got)
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestLazyMalformedOverridesTypedError rebuilds the stream with an
// overrides payload that passes its checksum but is garbage: unlike
// checksum damage, which degrades, that is a typed *SectionError naming the
// section. (The Lazy in this and the next two names dates from the
// section-skipping open that shared these cases with Read.)
func TestLazyMalformedOverridesTypedError(t *testing.T) {
	data := v2Bytes(t, fixture(t))

	var out bytes.Buffer
	fw, err := framing.NewWriter(&out, dbMagicV2)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := framing.NewReader(bytes.NewReader(data), int64(len(data)), dbMagicV2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		id, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if id == dbSecOverrides {
			// An absurd entry count: well-framed, correctly checksummed,
			// semantically malformed.
			payload = binary.AppendUvarint(nil, 1<<40)
		}
		if err := fw.Section(id, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Read(bytes.NewReader(out.Bytes()))
	var se *SectionError
	if !errors.As(err, &se) || se.Section != "overrides" {
		t.Fatalf("read of malformed overrides: %v, want *SectionError for overrides", err)
	}
}

// TestLazyOpenEagerFallback reads v1 and XML databases, which have no
// sections: override-backed columns come back filled all the same.
func TestLazyOpenEagerFallback(t *testing.T) {
	e := fixture(t)
	for _, tc := range []struct {
		name  string
		write func(*Experiment, io.Writer) error
	}{
		{"v1", (*Experiment).WriteBinaryV1},
		{"xml", (*Experiment).WriteXML},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(e, &buf); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			equalExperiments(t, e, got)
			if m := maxAbsIncl(got, firstSummaryCol(t, got)); m == 0 {
				t.Fatal("summary column empty")
			}
		})
	}
}

// TestLazyOpenErrors: truncation, an empty stream and a damaged required
// section fail the open.
func TestLazyOpenErrors(t *testing.T) {
	data := v2Bytes(t, fixture(t))

	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated stream opened")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty stream opened")
	}
	var se *SectionError
	if _, err := Read(bytes.NewReader(corruptSection(t, data, dbSecTree))); !errors.As(err, &se) || se.Section != "tree" {
		t.Fatalf("damaged tree section: %v", err)
	}
}
