package profile

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/framing"
)

// Binary measurement-file formats.
//
// v1 ("CPP1") is a bare varint stream: magic, program/rank/thread/
// fingerprint, metric descriptors, then the preorder tree
//
//	node := callPC uvarint
//	        nSamples { pc uvarint, counts[nMetrics] uvarint }*
//	        nChildren node*
//
// v2 ("CPP2") wraps the same encodings in the checksummed section
// container of internal/framing:
//
//	magic "CPP2"
//	section 1 (header): program, rank, thread, fingerprint, metrics
//	section 2 (tree):   preorder node stream as in v1
//	end marker
//
// Every section carries a CRC32C trailer, so a flipped bit anywhere in a
// measurement file is detected at read time instead of silently skewing
// merged metrics. Both sections are required: damage to either fails the
// read (rank-level quarantine in hpcprof handles the fallout). Strings are
// uvarint length + bytes throughout. The format is the stand-in for
// hpcrun's measurement files and is deliberately compact: Section IX of
// the paper names replacing XML with "a more compact binary format" as
// ongoing work.

const (
	profMagic   = "CPP1"
	profMagicV2 = "CPP2"
)

// v2 section ids.
const (
	profSecHeader byte = 1
	profSecTree   byte = 2
	profSecTrace  byte = 3 // trace events, skipped by readers before PR 9
)

const maxProfileStrLen = 1 << 20

// writeUvarint and writeString append to the payload being built: a tree
// section is a few hundred thousand varints, and appending each to one
// slice costs neither a call through a writer nor a scratch array.
func writeUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func writeString(b []byte, s string) []byte {
	return append(writeUvarint(b, uint64(len(s))), s...)
}

// Write serializes the profile in the current (v2, checksummed) format.
func (p *Profile) Write(w io.Writer) error {
	if err := p.writable(); err != nil {
		return err
	}
	fw, err := framing.NewWriter(w, profMagicV2)
	if err != nil {
		return err
	}
	if err := fw.Section(profSecHeader, p.writeHeader(nil)); err != nil {
		return err
	}
	if err := fw.Section(profSecTree, writeNode(nil, p.Root)); err != nil {
		return err
	}
	if p.Trace != nil && p.Trace.Count() > 0 {
		if err := p.writeTraceSection(fw); err != nil {
			return err
		}
	}
	return fw.Close()
}

// WriteV1 serializes the profile in the legacy unchecksummed v1 format,
// kept for compatibility tests and for producing old-format files.
func (p *Profile) WriteV1(w io.Writer) error {
	if err := p.writable(); err != nil {
		return err
	}
	_, err := w.Write(writeNode(p.writeHeader([]byte(profMagic)), p.Root))
	return err
}

// writable reports what both writers refuse: an invalid profile, or an
// identity the unsigned encoding cannot hold.
func (p *Profile) writable() error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Rank < 0 || p.Thread < 0 {
		return fmt.Errorf("profile: negative rank/thread %d/%d", p.Rank, p.Thread)
	}
	return nil
}

// writeHeader appends the fields shared by both versions: program, rank,
// thread, fingerprint and the metric descriptors.
func (p *Profile) writeHeader(b []byte) []byte {
	b = writeString(b, p.Program)
	b = writeUvarint(b, uint64(p.Rank))
	b = writeUvarint(b, uint64(p.Thread))
	b = writeUvarint(b, p.Fingerprint)
	b = writeUvarint(b, uint64(len(p.Metrics)))
	for _, m := range p.Metrics {
		b = writeString(b, m.Name)
		b = writeString(b, m.Unit)
		b = writeUvarint(b, m.Period)
	}
	return b
}

func writeNode(b []byte, n *Node) []byte {
	b = writeUvarint(b, n.CallPC)
	b = writeUvarint(b, uint64(len(n.samples)))
	for _, row := range n.samples {
		b = writeUvarint(b, row.PC)
		for _, c := range row.Counts {
			b = writeUvarint(b, c)
		}
	}
	b = writeUvarint(b, uint64(len(n.children)))
	for _, c := range n.children {
		b = writeNode(b, c)
	}
	return b
}

// Read deserializes a profile in either format, sniffing the magic.
func Read(r io.Reader) (*Profile, error) {
	size := framing.SizeOf(r)
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(profMagic))
	if err != nil {
		return nil, fmt.Errorf("profile: reading magic: %w", noEOF(err))
	}
	switch string(magic) {
	case profMagic:
		return readV1(br)
	case profMagicV2:
		return readV2(br, size)
	default:
		return nil, fmt.Errorf("profile: bad magic %q", magic)
	}
}

// noEOF upgrades a bare io.EOF to io.ErrUnexpectedEOF: callers of Read
// always expect a complete profile, so running out of input mid-stream is
// truncation, not a clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func readV1(br *bufio.Reader) (*Profile, error) {
	if _, err := br.Discard(len(profMagic)); err != nil {
		return nil, err
	}
	// v1 has no section lengths: the tree runs to the end of the stream.
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: body}
	p := &Profile{}
	if err := d.header(p); err != nil {
		return nil, err
	}
	if p.Root, err = d.node(len(p.Metrics), 0); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func readV2(br *bufio.Reader, size int64) (*Profile, error) {
	fr, err := framing.NewReader(br, size, profMagicV2)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Trace sections can dwarf the tree; stream them (and any future
	// section) to a discard sink so skipping stays O(chunk), not
	// O(payload). The CRC is still verified.
	fr.SetSink(func(id byte) io.Writer {
		if id == profSecHeader || id == profSecTree {
			return nil
		}
		return io.Discard
	})
	p := &Profile{}
	var sawHeader, sawTree bool
	for {
		id, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Both sections are required, so checksum damage is as fatal
			// as framing damage here.
			return nil, fmt.Errorf("profile: %w", err)
		}
		d := &decoder{b: payload}
		switch id {
		case profSecHeader:
			if sawHeader {
				return nil, fmt.Errorf("profile: duplicate header section")
			}
			if err := d.header(p); err != nil {
				return nil, err
			}
			if len(d.b) != 0 {
				return nil, fmt.Errorf("profile: trailing bytes in header section")
			}
			sawHeader = true
		case profSecTree:
			if !sawHeader {
				return nil, fmt.Errorf("profile: tree section before header")
			}
			if sawTree {
				return nil, fmt.Errorf("profile: duplicate tree section")
			}
			if p.Root, err = d.node(len(p.Metrics), 0); err != nil {
				return nil, err
			}
			if len(d.b) != 0 {
				return nil, fmt.Errorf("profile: trailing bytes in tree section")
			}
			sawTree = true
		default:
			// Unknown sections are skipped for forward compatibility;
			// their checksum was still verified by Next.
		}
	}
	if !sawHeader || !sawTree {
		return nil, fmt.Errorf("profile: missing required section (header %v, tree %v)", sawHeader, sawTree)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// decoder reads the varint encodings off the front of b, a whole section
// (or v1 body) in memory. Frames, sample rows and counts are carved from
// chunked slabs instead of allocated one by one; a slab is only ever sized
// by a count that has been checked against the bytes still unread, so a
// hostile count cannot make the reader allocate more than the input could
// describe.
type decoder struct {
	b      []byte
	nodes  []Node
	kids   []*Node
	rows   []SampleRow
	counts []uint64
}

// slabChunk is the slab size in elements when neither the request nor the
// unread input is larger.
const slabChunk = 256

// carve cuts n zeroed elements off *slab, starting a new slab when it runs
// short; left is the number of bytes still unread, which every element
// costs at least one of. The result's capacity is its length: a later
// insert into it reallocates instead of running into its neighbour.
func carve[T any](slab *[]T, n, left int) []T {
	if n == 0 {
		return nil
	}
	if n > len(*slab) {
		*slab = make([]T, max(n, min(slabChunk, left)))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// order sorts s by key — for sibling lists that did not arrive ascending —
// and reports a key that occurs twice.
func order[T any](s []T, key func(T) uint64) (dup uint64, found bool) {
	slices.SortFunc(s, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	for i := 1; i < len(s); i++ {
		if key(s[i-1]) == key(s[i]) {
			return key(s[i]), true
		}
	}
	return 0, false
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, fmt.Errorf("profile: varint overflows a 64-bit integer")
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxProfileStrLen {
		return "", fmt.Errorf("profile: string length %d too large", n)
	}
	if n > uint64(len(d.b)) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

// header parses the fields shared by both versions into p.
func (d *decoder) header(p *Profile) error {
	var err error
	if p.Program, err = d.str(); err != nil {
		return err
	}
	rank, err := d.uvarint()
	if err != nil {
		return err
	}
	thread, err := d.uvarint()
	if err != nil {
		return err
	}
	if rank > math.MaxInt32 || thread > math.MaxInt32 {
		return fmt.Errorf("profile: implausible rank/thread %d/%d", rank, thread)
	}
	p.Rank, p.Thread = int(rank), int(thread)
	if p.Fingerprint, err = d.uvarint(); err != nil {
		return err
	}
	nm, err := d.uvarint()
	if err != nil {
		return err
	}
	if nm > 1024 {
		return fmt.Errorf("profile: implausible metric count %d", nm)
	}
	for i := uint64(0); i < nm; i++ {
		var m MetricInfo
		if m.Name, err = d.str(); err != nil {
			return err
		}
		if m.Unit, err = d.str(); err != nil {
			return err
		}
		if m.Period, err = d.uvarint(); err != nil {
			return err
		}
		p.Metrics = append(p.Metrics, m)
	}
	return nil
}

const maxTreeDepth = 100_000

// node decodes one frame and its subtree. Write emits sample rows and
// children in ascending PC order; lists that arrive in any other order are
// sorted, and a PC that occurs twice in one list is an error.
func (d *decoder) node(nMetrics int, depth int) (*Node, error) {
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("profile: tree deeper than %d", maxTreeDepth)
	}
	n := &carve(&d.nodes, 1, len(d.b)+1)[0]
	var err error
	if n.CallPC, err = d.uvarint(); err != nil {
		return nil, err
	}
	ns, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// A row is its PC and nMetrics counts, a byte each at least.
	if ns > uint64(len(d.b))/uint64(1+nMetrics) {
		return nil, io.ErrUnexpectedEOF
	}
	n.samples = carve(&d.rows, int(ns), len(d.b))
	counts := carve(&d.counts, int(ns)*nMetrics, len(d.b))
	ascending := true
	for i := range n.samples {
		row := &n.samples[i]
		if row.PC, err = d.uvarint(); err != nil {
			return nil, err
		}
		row.Counts = counts[i*nMetrics : (i+1)*nMetrics : (i+1)*nMetrics]
		for j := range row.Counts {
			if row.Counts[j], err = d.uvarint(); err != nil {
				return nil, err
			}
		}
		ascending = ascending && (i == 0 || n.samples[i-1].PC < row.PC)
	}
	if !ascending {
		if pc, dup := order(n.samples, func(r SampleRow) uint64 { return r.PC }); dup {
			return nil, fmt.Errorf("profile: duplicate sample pc 0x%x", pc)
		}
	}
	nc, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// A frame is at least its call PC and two counts, a byte each.
	if nc > uint64(len(d.b))/3 {
		return nil, io.ErrUnexpectedEOF
	}
	n.children = carve(&d.kids, int(nc), len(d.b))
	ascending = true
	for i := range n.children {
		if n.children[i], err = d.node(nMetrics, depth+1); err != nil {
			return nil, err
		}
		ascending = ascending && (i == 0 || n.children[i-1].CallPC < n.children[i].CallPC)
	}
	if !ascending {
		if pc, dup := order(n.children, func(c *Node) uint64 { return c.CallPC }); dup {
			return nil, fmt.Errorf("profile: duplicate child pc 0x%x", pc)
		}
	}
	return n, nil
}
