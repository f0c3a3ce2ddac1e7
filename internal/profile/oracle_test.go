package profile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/framing"
)

// The trie this package kept until the sorted-slice Node replaced it: two
// maps per frame, sorted on the way out. It stays here as the reference the
// slice trie is compared with — same Record calls in, same bytes, totals,
// shape and preorder out. Exported (from a test file) so the workload
// fixtures in package profile_test can use it too.

// OracleNode is one frame of the map trie.
type OracleNode struct {
	CallPC   uint64
	children map[uint64]*OracleNode
	samples  map[uint64][]uint64
}

// Oracle is a profile over the map trie.
type Oracle struct {
	Program      string
	Rank, Thread int
	Fingerprint  uint64
	Metrics      []MetricInfo
	Root         *OracleNode
}

// NewOracle creates an empty map-trie profile with p's identity.
func NewOracle(p *Profile) *Oracle {
	return &Oracle{Program: p.Program, Rank: p.Rank, Thread: p.Thread, Fingerprint: p.Fingerprint,
		Metrics: p.Metrics, Root: &OracleNode{}}
}

// Frame is the descent of Profile.Record on the map trie: the frame at the
// end of callPath, created on the way if need be.
func (o *Oracle) Frame(callPath []uint64) *OracleNode {
	n := o.Root
	for _, pc := range callPath {
		c := n.children[pc]
		if c == nil {
			if n.children == nil {
				n.children = map[uint64]*OracleNode{}
			}
			c = &OracleNode{CallPC: pc}
			n.children[pc] = c
		}
		n = c
	}
	return n
}

// Record is Profile.Record on the map trie.
func (o *Oracle) Record(callPath []uint64, leafPC uint64, metric int, count uint64) {
	n := o.Frame(callPath)
	if n.samples == nil {
		n.samples = map[uint64][]uint64{}
	}
	if n.samples[leafPC] == nil {
		n.samples[leafPC] = make([]uint64, len(o.Metrics))
	}
	n.samples[leafPC][metric] += count
}

// Replay records everything p holds into a new map trie, rows and frames
// in the order perm gives (nil: as stored).
func Replay(p *Profile, perm func(n int) []int) *Oracle {
	o := NewOracle(p)
	order := func(n int) []int {
		if perm != nil {
			return perm(n)
		}
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	var walk func(n *Node, path []uint64)
	walk = func(n *Node, path []uint64) {
		o.Frame(path)
		rows := n.Samples()
		for _, i := range order(len(rows)) {
			for m, c := range rows[i].Counts {
				o.Record(path, rows[i].PC, m, c)
			}
		}
		kids := n.Children()
		for _, i := range order(len(kids)) {
			walk(kids[i], append(path[:len(path):len(path)], kids[i].CallPC))
		}
	}
	walk(p.Root, nil)
	return o
}

func (n *OracleNode) sortedChildren() []*OracleNode {
	out := make([]*OracleNode, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CallPC < out[j].CallPC })
	return out
}

func (n *OracleNode) sortedSamples() []SampleRow {
	out := make([]SampleRow, 0, len(n.samples))
	for pc, counts := range n.samples {
		out = append(out, SampleRow{PC: pc, Counts: counts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// Write is the v2 writer as it was: varints through a bufio.Writer into a
// buffer per section.
func (o *Oracle) Write(w io.Writer) error {
	uvarint := func(bw *bufio.Writer, v uint64) {
		var buf [binary.MaxVarintLen64]byte
		bw.Write(buf[:binary.PutUvarint(buf[:], v)])
	}
	str := func(bw *bufio.Writer, s string) {
		uvarint(bw, uint64(len(s)))
		bw.WriteString(s)
	}
	var hdr, tree bytes.Buffer
	hw := bufio.NewWriter(&hdr)
	str(hw, o.Program)
	uvarint(hw, uint64(o.Rank))
	uvarint(hw, uint64(o.Thread))
	uvarint(hw, o.Fingerprint)
	uvarint(hw, uint64(len(o.Metrics)))
	for _, m := range o.Metrics {
		str(hw, m.Name)
		str(hw, m.Unit)
		uvarint(hw, m.Period)
	}
	hw.Flush()
	tw := bufio.NewWriter(&tree)
	var node func(n *OracleNode)
	node = func(n *OracleNode) {
		uvarint(tw, n.CallPC)
		rows := n.sortedSamples()
		uvarint(tw, uint64(len(rows)))
		for _, row := range rows {
			uvarint(tw, row.PC)
			for _, c := range row.Counts {
				uvarint(tw, c)
			}
		}
		kids := n.sortedChildren()
		uvarint(tw, uint64(len(kids)))
		for _, c := range kids {
			node(c)
		}
	}
	node(o.Root)
	tw.Flush()
	fw, err := framing.NewWriter(w, profMagicV2)
	if err != nil {
		return err
	}
	if err := fw.Section(profSecHeader, hdr.Bytes()); err != nil {
		return err
	}
	if err := fw.Section(profSecTree, tree.Bytes()); err != nil {
		return err
	}
	return fw.Close()
}

// Totals is Profile.Totals on the map trie.
func (o *Oracle) Totals() []uint64 {
	tot := make([]uint64, len(o.Metrics))
	var walk func(n *OracleNode)
	walk = func(n *OracleNode) {
		for _, row := range n.samples {
			for i, c := range row {
				tot[i] += c
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(o.Root)
	return tot
}

// Stats is Profile.Stats on the map trie.
func (o *Oracle) Stats() Stats {
	var st Stats
	var walk func(n *OracleNode)
	walk = func(n *OracleNode) {
		st.Frames++
		st.Leaves += len(n.samples)
		for _, row := range n.samples {
			if len(row) > 0 && o.Metrics[0].Period > 0 {
				st.Samples += row[0] / o.Metrics[0].Period
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(o.Root)
	return st
}

// PreorderPaths lists the frames in serialization order, each as its call
// path, in a form two tries can be compared by.
func (o *Oracle) PreorderPaths() []string {
	var out []string
	var walk func(n *OracleNode, path string)
	walk = func(n *OracleNode, path string) {
		out = append(out, path)
		for _, c := range n.sortedChildren() {
			walk(c, fmt.Sprintf("%s/%x", path, c.CallPC))
		}
	}
	walk(o.Root, "")
	return out
}

// PreorderPaths is the same listing of the slice trie.
func PreorderPaths(p *Profile) []string {
	var out []string
	var walk func(n *Node, path string)
	walk = func(n *Node, path string) {
		out = append(out, path)
		for _, c := range n.Children() {
			walk(c, fmt.Sprintf("%s/%x", path, c.CallPC))
		}
	}
	walk(p.Root, "")
	return out
}

// CompareWithOracle checks everything the two tries can be compared by.
func CompareWithOracle(p *Profile, o *Oracle) error {
	if err := p.Validate(); err != nil {
		return err
	}
	var got, want bytes.Buffer
	if err := p.Write(&got); err != nil {
		return err
	}
	if err := o.Write(&want); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("Write: %d bytes, oracle %d, first difference at %d", got.Len(), want.Len(), firstDiff(got.Bytes(), want.Bytes()))
	}
	if g, w := p.Totals(), o.Totals(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("Totals = %v, oracle %v", g, w)
	}
	if g, w := p.Stats(), o.Stats(); g != w {
		return fmt.Errorf("Stats = %+v, oracle %+v", g, w)
	}
	if g, w := PreorderPaths(p), o.PreorderPaths(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("preorder differs: %d frames, oracle %d", len(g), len(w))
	}
	// What Write emitted reads back to the same bytes.
	back, err := Read(bytes.NewReader(got.Bytes()))
	if err != nil {
		return fmt.Errorf("reading back: %w", err)
	}
	var again bytes.Buffer
	if err := back.Write(&again); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), got.Bytes()) {
		return fmt.Errorf("Read then Write changed the bytes")
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// Random Record sequences — paths drawn from a small PC alphabet so that
// prefixes are shared and contexts repeat, 1 to 4 metrics — must
// leave the slice trie and the map trie indistinguishable.
func TestTrieMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		metrics := make([]MetricInfo, 1+seed%4)
		for i := range metrics {
			metrics[i] = MetricInfo{Name: fmt.Sprint("M", i), Unit: "u", Period: uint64(1 + rng.Intn(3))}
		}
		p := NewProfile("rnd", int(seed), rng.Intn(3), metrics)
		p.Fingerprint = uint64(rng.Int63())
		o := NewOracle(p)
		alphabet := 2 + rng.Intn(12)
		var path []uint64
		for i, n := 0, 1+rng.Intn(400); i < n; i++ {
			switch rng.Intn(4) {
			case 0: // a fresh path
				path = path[:0]
				for d := rng.Intn(7); d > 0; d-- {
					path = append(path, uint64(0x1000+8*rng.Intn(alphabet)))
				}
			case 1: // one frame deeper
				path = append(path, uint64(0x1000+8*rng.Intn(alphabet)))
			case 2: // back to the caller
				path = path[:max(len(path)-1, 0)]
			} // otherwise the same context again
			pc, m, count := uint64(0x2000+4*rng.Intn(alphabet)), rng.Intn(len(metrics)), uint64(rng.Intn(5))*metrics[0].Period
			p.Record(path, pc, m, count)
			o.Record(path, pc, m, count)
		}
		if err := CompareWithOracle(p, o); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// rawProfile frames a hand-written tree section behind a one-metric header.
func rawProfile(tree ...uint64) []byte {
	var body []byte
	for _, v := range tree {
		body = writeUvarint(body, v)
	}
	var buf bytes.Buffer
	fw, _ := framing.NewWriter(&buf, profMagicV2)
	fw.Section(profSecHeader, NewProfile("raw", 0, 0, []MetricInfo{{Name: "M", Unit: "u", Period: 1}}).writeHeader(nil))
	fw.Section(profSecTree, body)
	fw.Close()
	return buf.Bytes()
}

// Tree sections Write never emits. Lists in descending order are accepted
// and come back sorted; a PC twice in one list is refused with the error
// the map trie gave; a count the remaining bytes cannot hold is refused
// before anything is sized by it.
var rawTrees = []struct {
	name    string
	file    []byte
	wantErr string
}{
	{"descending samples", rawProfile(0, 3, 0x30, 3, 0x20, 2, 0x10, 1, 0), ""},
	{"descending children", rawProfile(0, 0, 3, 0x30, 1, 0x8, 5, 0, 0x20, 0, 0, 0x10, 0, 0), ""},
	{"duplicate sample pc", rawProfile(0, 2, 0x10, 1, 0x10, 2, 0), "profile: duplicate sample pc 0x10"},
	{"duplicate sample pc, unsorted", rawProfile(0, 3, 0x20, 1, 0x10, 1, 0x20, 2, 0), "profile: duplicate sample pc 0x20"},
	{"duplicate child pc", rawProfile(0, 0, 2, 0x10, 0, 0, 0x10, 0, 0), "profile: duplicate child pc 0x10"},
	{"duplicate child pc, unsorted", rawProfile(0, 0, 3, 0x20, 0, 0, 0x10, 0, 0, 0x20, 0, 0), "profile: duplicate child pc 0x20"},
	{"sample count beyond the input", rawProfile(0, 1<<40, 0x10, 1, 0), "unexpected EOF"},
	{"sample count one row too many", rawProfile(0, 2, 0x10, 1, 0), "unexpected EOF"},
	{"child count beyond the input", rawProfile(0, 0, 1<<40), "unexpected EOF"},
}

func TestReadHandWrittenTrees(t *testing.T) {
	for _, tc := range rawTrees {
		p, err := Read(bytes.NewReader(tc.file))
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		// Accepted: the trie is in order whatever order the file was in, so
		// the file written from it is the sorted one.
		var out bytes.Buffer
		if err := p.Write(&out); err != nil {
			t.Errorf("%s: re-encode: %v", tc.name, err)
		}
		if err := CompareWithOracle(p, Replay(p, nil)); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	// The huge counts must be refused by arithmetic, not by trying.
	for _, i := range []int{6, 8} {
		if n := testing.AllocsPerRun(10, func() { Read(bytes.NewReader(rawTrees[i].file)) }); n > 40 {
			t.Errorf("%s: %v allocations", rawTrees[i].name, n)
		}
	}
}

// recordOps decodes ops into a run of Record calls and hand edits, applied
// to a slice trie and to the map trie alike, then compares the two under
// every root the run used. It is how Record's cached context is checked:
// paths climb and descend a shared prefix, repeat, return to the root;
// Root is swapped for another trie and back; frames and rows are added by
// hand through Child and AddSample; and the profile is replaced by what
// Read makes of its bytes, so Record goes on over decoder-carved lists.
func recordOps(ops []byte) error {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		v := int(ops[0])
		ops = ops[1:]
		return v
	}
	metrics := make([]MetricInfo, 1+next()%4)
	for i := range metrics {
		metrics[i] = MetricInfo{Name: fmt.Sprint("M", i), Unit: "u", Period: uint64(1 + i)}
	}
	alphabet := 2 + next()%12
	pc := func(base uint64) uint64 { return base + 8*uint64(next()%alphabet) }
	p := NewProfile("ops", 1, 0, metrics)
	o := NewOracle(p)
	roots, oroots := []*Node{p.Root}, []*OracleNode{o.Root}
	var path []uint64
	for len(ops) > 0 {
		switch next() % 9 {
		case 0: // a fresh path
			path = path[:0]
			for d := next() % 7; d > 0; d-- {
				path = append(path, pc(0x1000))
			}
		case 1: // one frame deeper
			path = append(path, pc(0x1000))
		case 2: // back to the caller
			path = path[:max(len(path)-1, 0)]
		case 3: // back to the root
			path = path[:0]
		case 4: // another root, or one used before
			k := next() % (len(roots) + 1)
			if k == len(roots) {
				roots, oroots = append(roots, &Node{}), append(oroots, &OracleNode{})
			}
			p.Root, o.Root = roots[k], oroots[k]
		case 5: // a frame below the current one, by hand
			n := p.Root
			for _, c := range path {
				n = n.Child(c, true)
			}
			c := pc(0x1000)
			n.Child(c, true)
			o.Frame(append(path[:len(path):len(path)], c))
		case 6: // a row in the current frame, by hand
			n := p.Root
			for _, c := range path {
				n = n.Child(c, true)
			}
			leaf, m, count := pc(0x2000), next()%len(metrics), uint64(next()%5)
			n.AddSample(leaf, m, len(metrics), count)
			o.Record(path, leaf, m, count)
		case 7: // the profile as Read gives it back
			var buf bytes.Buffer
			if err := p.Write(&buf); err != nil {
				return err
			}
			q, err := Read(&buf)
			if err != nil {
				return err
			}
			p, roots, oroots = q, []*Node{q.Root}, []*OracleNode{o.Root}
		} // otherwise the same context again
		leaf, m, count := pc(0x2000), next()%len(metrics), uint64(next()%5)*metrics[0].Period
		p.Record(path, leaf, m, count)
		o.Record(path, leaf, m, count)
	}
	for k := range roots {
		p.Root, o.Root = roots[k], oroots[k]
		if err := CompareWithOracle(p, o); err != nil {
			return fmt.Errorf("root %d of %d: %w", k, len(roots), err)
		}
	}
	return nil
}

// Random op strings of up to 4 000 bytes, some 800 records each.
func TestRecordContextMatchesMapOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, rng.Intn(4000))
		rng.Read(ops)
		if err := recordOps(ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzRecord runs recordOps on arbitrary op strings.
func FuzzRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 0, 0, 0, 1, 2, 3, 4, 1, 3, 5, 6, 1, 2, 3, 4, 2, 1, 1, 1, 8, 0, 0, 0})
	f.Add([]byte{0, 5, 0, 6, 1, 2, 3, 4, 5, 6, 7, 4, 0, 1, 2, 3, 1, 1, 1, 1, 4, 1, 9, 9, 9, 3, 0, 0, 0})
	f.Add([]byte{1, 3, 1, 7, 0, 0, 5, 7, 1, 1, 7, 1, 1, 2, 0, 7, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			return
		}
		if err := recordOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}
