// Package framing implements the checksummed section container shared by
// the v2 binary formats ("CPP2" measurement files, "CPDB2" experiment
// databases). A framed stream is
//
//	magic bytes
//	section*  :=  id byte (nonzero) | uvarint payload length | payload | crc32c(payload) LE
//	end byte 0
//
// Per-section CRC32C trailers let a reader pinpoint which section a flaky
// filesystem damaged: a corrupt optional section can be dropped (degraded
// open) while the rest of the file stays trustworthy. Payload lengths are
// validated against the remaining input size when it is known, so a
// malicious length cannot drive a huge allocation from a tiny file.
package framing

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// EndMarker terminates a framed stream; section ids must be nonzero.
const EndMarker byte = 0

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of payload, the per-section trailer value.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// ChecksumError reports a section whose payload did not match its CRC32C
// trailer. The section was fully consumed: the caller may keep reading the
// following sections and decide per section id whether the damage is fatal
// or degradable.
type ChecksumError struct {
	SectionID byte
	Offset    int64 // stream offset of the section's id byte
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("framing: section %d at offset %d failed its CRC32C check", e.SectionID, e.Offset)
}

// FrameError reports damage to the framing itself (bad length, missing end
// marker, truncation). Framing damage is always fatal: section boundaries
// can no longer be trusted.
type FrameError struct {
	Offset int64
	Reason string
	Err    error // underlying error, if any
}

func (e *FrameError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("framing: at offset %d: %s: %v", e.Offset, e.Reason, e.Err)
	}
	return fmt.Sprintf("framing: at offset %d: %s", e.Offset, e.Reason)
}

func (e *FrameError) Unwrap() error { return e.Err }

// SizeOf reports the number of bytes remaining in r when r can be measured
// without consuming it (io.Seeker), and -1 otherwise. Readers use the size
// to bound count- and length-driven allocations.
func SizeOf(r io.Reader) int64 {
	s, ok := r.(io.Seeker)
	if !ok {
		return -1
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return -1
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return -1
	}
	return end - cur
}

// Writer frames sections onto an io.Writer.
type Writer struct {
	w io.Writer
}

// NewWriter writes the magic and returns a section writer.
func NewWriter(w io.Writer, magic string) (*Writer, error) {
	if _, err := io.WriteString(w, magic); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// Section frames one section. The id must be nonzero.
func (fw *Writer) Section(id byte, payload []byte) error {
	if id == EndMarker {
		return fmt.Errorf("framing: section id 0 is reserved for the end marker")
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = id
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := fw.w.Write(hdr[:1+n]); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], Checksum(payload))
	_, err := fw.w.Write(crc[:])
	return err
}

// StreamSection frames one section whose payload length is known up front
// but whose bytes are produced incrementally: fn receives a writer that
// accumulates the CRC as bytes pass through, so the payload is never
// materialized. fn must write exactly length bytes or the stream is left
// inconsistent and an error is returned.
func (fw *Writer) StreamSection(id byte, length uint64, fn func(io.Writer) error) error {
	if id == EndMarker {
		return fmt.Errorf("framing: section id 0 is reserved for the end marker")
	}
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = id
	n := binary.PutUvarint(hdr[1:], length)
	if _, err := fw.w.Write(hdr[:1+n]); err != nil {
		return err
	}
	cw := &crcWriter{w: fw.w}
	if err := fn(cw); err != nil {
		return err
	}
	if uint64(cw.n) != length {
		return fmt.Errorf("framing: streamed section %d wrote %d bytes, declared %d", id, cw.n, length)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.crc)
	_, err := fw.w.Write(crc[:])
	return err
}

// crcWriter forwards writes while accumulating their CRC32C and length.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	return n, err
}

// Close writes the end marker. The underlying writer is not closed.
func (fw *Writer) Close() error {
	_, err := fw.w.Write([]byte{EndMarker})
	return err
}

// Reader iterates the sections of a framed stream.
type Reader struct {
	br   *bufio.Reader
	size int64 // total input size including magic, -1 if unknown
	off  int64 // bytes consumed so far
	sink func(id byte) io.Writer
}

// SetSink registers a per-section streaming sink. When fn returns a
// non-nil writer for a section id, Next streams that section's payload
// through the writer in bounded chunks instead of buffering it, and
// returns a nil payload for the section. The CRC is still verified over
// the streamed bytes. Use io.Discard to skip a large section without
// O(payload) memory.
func (fr *Reader) SetSink(fn func(id byte) io.Writer) { fr.sink = fn }

// NewReader checks the magic and returns a section reader. size is the
// total input length including the magic (use SizeOf on the unwrapped
// source), or -1 when unknown; it bounds payload allocations.
func NewReader(r io.Reader, size int64, magic string) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	fr := &Reader{br: br, size: size}
	got := make([]byte, len(magic))
	if err := fr.readFull(got); err != nil {
		return nil, &FrameError{Offset: 0, Reason: "reading magic", Err: err}
	}
	if string(got) != magic {
		return nil, &FrameError{Offset: 0, Reason: fmt.Sprintf("bad magic %q, want %q", got, magic)}
	}
	return fr, nil
}

func (fr *Reader) readFull(p []byte) error {
	n, err := io.ReadFull(fr.br, p)
	fr.off += int64(n)
	return err
}

// remaining reports how many input bytes are left, or a very large number
// when the size is unknown.
func (fr *Reader) remaining() int64 {
	if fr.size < 0 {
		return 1<<63 - 1
	}
	return fr.size - fr.off
}

// maxChunk bounds a single payload allocation when the input size is
// unknown: payloads are then read in chunks so a lying length can never
// allocate more than the data actually present plus one chunk.
const maxChunk = 1 << 20

// Next returns the next section. It returns (0, nil, io.EOF) at the end
// marker; a *ChecksumError when the payload fails its CRC (the section is
// fully consumed — the caller may continue); and a *FrameError when the
// framing itself is damaged (fatal).
func (fr *Reader) Next() (byte, []byte, error) {
	start := fr.off
	id, err := fr.br.ReadByte()
	if err != nil {
		// A well-formed stream ends with the end marker, so raw EOF here
		// means the tail was cut off.
		return 0, nil, &FrameError{Offset: start, Reason: "truncated before end marker", Err: io.ErrUnexpectedEOF}
	}
	fr.off++
	if id == EndMarker {
		return 0, nil, io.EOF
	}
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, &FrameError{Offset: start, Reason: "reading section length", Err: err}
	}
	fr.off += int64(uvarintLen(n))
	if int64(n) < 0 || (fr.size >= 0 && int64(n) > fr.remaining()) {
		return 0, nil, &FrameError{Offset: start, Reason: fmt.Sprintf("section %d length %d exceeds remaining input", id, n)}
	}
	if fr.sink != nil {
		if w := fr.sink(id); w != nil {
			return fr.streamPayload(id, n, start, w)
		}
	}
	var payload []byte
	if fr.size >= 0 || n <= maxChunk {
		payload = make([]byte, n)
		if err := fr.readFull(payload); err != nil {
			return 0, nil, &FrameError{Offset: start, Reason: fmt.Sprintf("reading section %d payload", id), Err: err}
		}
	} else {
		// Unknown input size: grow with the data actually read.
		payload = make([]byte, 0, maxChunk)
		for uint64(len(payload)) < n {
			c := n - uint64(len(payload))
			if c > maxChunk {
				c = maxChunk
			}
			chunk := make([]byte, c)
			if err := fr.readFull(chunk); err != nil {
				return 0, nil, &FrameError{Offset: start, Reason: fmt.Sprintf("reading section %d payload", id), Err: err}
			}
			payload = append(payload, chunk...)
		}
	}
	var crc [4]byte
	if err := fr.readFull(crc[:]); err != nil {
		return 0, nil, &FrameError{Offset: start, Reason: fmt.Sprintf("reading section %d checksum", id), Err: err}
	}
	if binary.LittleEndian.Uint32(crc[:]) != Checksum(payload) {
		return id, payload, &ChecksumError{SectionID: id, Offset: start}
	}
	return id, payload, nil
}

// streamPayload consumes a section's payload in bounded chunks, forwarding
// each chunk to w and accumulating the CRC, then verifies the trailer.
// Sink write errors are surfaced as-is so the caller can distinguish its
// own failures from stream damage.
func (fr *Reader) streamPayload(id byte, n uint64, start int64, w io.Writer) (byte, []byte, error) {
	var buf [32 * 1024]byte
	crc := uint32(0)
	for left := n; left > 0; {
		c := left
		if c > uint64(len(buf)) {
			c = uint64(len(buf))
		}
		chunk := buf[:c]
		if err := fr.readFull(chunk); err != nil {
			return 0, nil, &FrameError{Offset: start, Reason: fmt.Sprintf("reading section %d payload", id), Err: err}
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		if _, err := w.Write(chunk); err != nil {
			return 0, nil, err
		}
		left -= c
	}
	var trailer [4]byte
	if err := fr.readFull(trailer[:]); err != nil {
		return 0, nil, &FrameError{Offset: start, Reason: fmt.Sprintf("reading section %d checksum", id), Err: err}
	}
	if binary.LittleEndian.Uint32(trailer[:]) != crc {
		return id, nil, &ChecksumError{SectionID: id, Offset: start}
	}
	return id, nil, nil
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}
