package framing

import (
	"hash/crc32"
	"io"
)

// Aligned-section layout support for the v3 zero-copy formats.
//
// The varint-framed container above cannot be mapped: payload offsets
// depend on varint widths, so an 8-byte-aligned float64 slab lands at an
// arbitrary offset. The aligned writer instead lays sections out back to
// back at 8-byte-aligned offsets with their metadata lifted out-of-line
// into a fixed-width index the format writes at the end of the file:
//
//	section* := payload bytes | zero pad to the next 8-byte boundary
//
// Each section's CRC32C covers the padded span, so every file byte between
// the magic and the index is covered by exactly one checksum — the property
// the corruption fault matrix demands — and the logical (unpadded) length
// is recorded in the caller's index entry.

// Align is the section alignment of the aligned container: float64 slabs
// require 8-byte alignment once the file is mapped at a page boundary.
const Align = 8

// AlignUp rounds n up to the next multiple of Align.
func AlignUp(n int64) int64 { return (n + Align - 1) &^ (Align - 1) }

// AlignedSection records where one section landed: the caller serializes
// these into its index.
type AlignedSection struct {
	// Offset is the section's byte offset from the start of the stream the
	// writer was handed (the caller writes the magic first, so offsets are
	// already 8-aligned when the magic is 8 bytes).
	Offset int64
	// Length is the logical payload length, excluding pad.
	Length int64
	// CRC is the CRC32C over the padded span AlignUp(Length).
	CRC uint32
}

// AlignedWriter appends 8-aligned checksummed sections to a stream.
// The caller is responsible for writing a leading magic whose length is a
// multiple of Align before the first Section call, and for serializing the
// section table after the last.
type AlignedWriter struct {
	w   io.Writer
	off int64
}

// NewAlignedWriter wraps w, which has already received off bytes (the
// magic). off must be a multiple of Align.
func NewAlignedWriter(w io.Writer, off int64) *AlignedWriter {
	return &AlignedWriter{w: w, off: off}
}

// Offset reports the next section's offset (always 8-aligned).
func (aw *AlignedWriter) Offset() int64 { return aw.off }

var zeroPad [Align]byte

// Section writes payload plus zero pad to the next 8-byte boundary and
// returns its placement record. The CRC covers payload and pad.
func (aw *AlignedWriter) Section(payload []byte) (AlignedSection, error) {
	sec := AlignedSection{Offset: aw.off, Length: int64(len(payload))}
	if _, err := aw.w.Write(payload); err != nil {
		return sec, err
	}
	pad := zeroPad[:AlignUp(sec.Length)-sec.Length]
	if len(pad) > 0 {
		if _, err := aw.w.Write(pad); err != nil {
			return sec, err
		}
	}
	crc := crc32.Update(0, castagnoli, payload)
	sec.CRC = crc32.Update(crc, castagnoli, pad)
	aw.off += AlignUp(sec.Length)
	return sec, nil
}

// ChecksumPadded returns the CRC32C an aligned section's span should carry:
// the reader-side twin of Section, over the mapped bytes.
func ChecksumPadded(span []byte) uint32 {
	return crc32.Update(0, castagnoli, span)
}
