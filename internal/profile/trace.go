package profile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/framing"
	"repro/internal/trace"
)

// Trace capture rides inside the profile: the sampler emits one event per
// sample crossing of the trace metric, tagged with the virtual time and
// the dynamic frame the sample landed in. Frames are identified by dense
// first-touch capture ids; when the profile is serialized the ids are
// rewritten to the trie's preorder indices (root = 0, children in sorted
// call-PC order — exactly the order writeNode emits), so a reader can
// resolve any trace record against the tree section without extra tables.

// TraceData is a profile's trace capture state: a bounded-memory recorder
// plus the capture-id → frame mapping (the reverse mapping lives on the
// nodes themselves as traceSlot).
type TraceData struct {
	rec   *trace.Recorder
	nodes []*Node
}

// EnableTrace turns on trace capture into spill with a buffer of
// bufRecords records (0 means trace.DefaultBufRecords). Call before the
// first sample.
func (p *Profile) EnableTrace(spill trace.SpillStore, bufRecords int) {
	p.Trace = &TraceData{
		rec: trace.NewRecorder(spill, bufRecords),
	}
}

// Emit records one trace event: at virtual time t, the sample landed in
// frame n at stack depth depth. Assigns n a dense capture id on first
// touch, stored intrusively so the steady-state cost is one integer
// compare and a buffered 16-byte append.
func (td *TraceData) Emit(t uint64, n *Node, depth int) error {
	id := n.traceSlot - 1
	if n.traceSlot == 0 {
		id = uint32(len(td.nodes))
		n.traceSlot = id + 1
		td.nodes = append(td.nodes, n)
	}
	d := depth
	if d > 65535 {
		d = 65535
	}
	return td.rec.Emit(trace.Rec{T: t, CPID: id, Depth: uint16(d)})
}

// Count reports the number of events captured.
func (td *TraceData) Count() uint64 { return td.rec.Count() }

// LastT reports the timestamp of the last event.
func (td *TraceData) LastT() uint64 { return td.rec.LastT() }

// Nodes returns the frames indexed by capture id.
func (td *TraceData) Nodes() []*Node { return td.nodes }

// Scan replays the captured events in time order, with capture-space ids.
func (td *TraceData) Scan(fn func(trace.Rec) error) error { return td.rec.Scan(fn) }

// Close releases the capture's spill store.
func (td *TraceData) Close() error { return td.rec.Close() }

// PreorderNodes returns the trie's nodes in serialization order: the root
// first, then each subtree in sorted call-PC order — the exact order
// writeNode walks, so index i here is node i of the tree section.
func (p *Profile) PreorderNodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// traceRemap returns the capture-id -> preorder-index table. Every traced
// frame knows its capture id (traceSlot), so one preorder walk fills it.
func (p *Profile) traceRemap() ([]uint32, error) {
	td := p.Trace
	remap := make([]uint32, len(td.nodes))
	found := 0
	for i, n := range p.PreorderNodes() {
		if id := int(n.traceSlot) - 1; id >= 0 && id < len(td.nodes) && td.nodes[id] == n {
			remap[id] = uint32(i)
			found++
		}
	}
	if found != len(td.nodes) {
		return nil, fmt.Errorf("profile: %d traced frames not in trie", len(td.nodes)-found)
	}
	return remap, nil
}

// traceHeaderSize is the fixed prefix of a trace section payload:
// count u64 | lastT u64, little-endian.
const traceHeaderSize = 16

// writeTraceSection streams the capture as section profSecTrace: the
// 16-byte header followed by count fixed-width records whose ids have
// been rewritten from capture space to trie preorder. Peak memory is the
// chunk buffer, never O(events).
func (p *Profile) writeTraceSection(fw *framing.Writer) error {
	td := p.Trace
	remap, err := p.traceRemap()
	if err != nil {
		return err
	}
	length := uint64(traceHeaderSize) + td.Count()*trace.RecSize
	return fw.StreamSection(profSecTrace, length, func(w io.Writer) error {
		var hdr [traceHeaderSize]byte
		binary.LittleEndian.PutUint64(hdr[0:8], td.Count())
		binary.LittleEndian.PutUint64(hdr[8:16], td.LastT())
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		buf := make([]byte, 0, 512*trace.RecSize)
		err := td.Scan(func(r trace.Rec) error {
			if int(r.CPID) >= len(remap) {
				return fmt.Errorf("profile: trace record cpid %d out of range", r.CPID)
			}
			r.CPID = remap[r.CPID]
			buf = trace.AppendRec(buf, r)
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// traceSink decodes a streamed trace section payload: header first, then
// records, tolerating arbitrary chunk boundaries.
type traceSink struct {
	fn      func(trace.Rec) error
	carry   []byte
	got     uint64 // payload bytes consumed
	count   uint64
	lastT   uint64
	sawHdr  bool
	scanned uint64
}

func (ts *traceSink) Write(p []byte) (int, error) {
	n := len(p)
	ts.got += uint64(n)
	b := p
	if len(ts.carry) > 0 {
		b = append(ts.carry, p...)
	}
	o := 0
	if !ts.sawHdr {
		if len(b) < traceHeaderSize {
			ts.carry = append(ts.carry[:0], b...)
			return n, nil
		}
		ts.count = binary.LittleEndian.Uint64(b[0:8])
		ts.lastT = binary.LittleEndian.Uint64(b[8:16])
		ts.sawHdr = true
		o = traceHeaderSize
	}
	for o+trace.RecSize <= len(b) {
		ts.scanned++
		if ts.scanned > ts.count {
			return n, fmt.Errorf("profile: trace section holds more records than its header declares")
		}
		if ts.fn != nil {
			if err := ts.fn(trace.DecodeRec(b[o : o+trace.RecSize])); err != nil {
				return n, err
			}
		}
		o += trace.RecSize
	}
	ts.carry = append(ts.carry[:0], b[o:]...)
	return n, nil
}

// ScanTrace streams the trace section of a v2 measurement stream, calling
// fn for each record (preorder-space ids) in time order; fn may be nil to
// read only the header. It returns the section's declared record count
// and last timestamp; (0, 0, nil) when the stream has no trace section
// (including v1 files). Memory stays bounded regardless of trace size.
func ScanTrace(r io.Reader, fn func(trace.Rec) error) (count, lastT uint64, err error) {
	size := framing.SizeOf(r)
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(profMagic))
	if err != nil {
		return 0, 0, fmt.Errorf("profile: reading magic: %w", noEOF(err))
	}
	if string(magic) == profMagic {
		return 0, 0, nil // v1 has no trace sections
	}
	fr, err := framing.NewReader(br, size, profMagicV2)
	if err != nil {
		return 0, 0, fmt.Errorf("profile: %w", err)
	}
	var ts *traceSink
	var sinkErr error
	fr.SetSink(func(id byte) io.Writer {
		if id != profSecTrace {
			return io.Discard
		}
		if ts != nil {
			sinkErr = fmt.Errorf("profile: duplicate trace section")
			return io.Discard
		}
		ts = &traceSink{fn: fn}
		return ts
	})
	for {
		_, _, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("profile: %w", err)
		}
		if sinkErr != nil {
			return 0, 0, sinkErr
		}
	}
	if ts == nil {
		return 0, 0, nil
	}
	if !ts.sawHdr {
		return 0, 0, fmt.Errorf("profile: trace section shorter than its header")
	}
	if want := uint64(traceHeaderSize) + ts.count*trace.RecSize; ts.got != want {
		return 0, 0, fmt.Errorf("profile: trace section length %d does not match declared count %d", ts.got, ts.count)
	}
	return ts.count, ts.lastT, nil
}
