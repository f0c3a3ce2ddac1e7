package profile

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func twoMetrics() []MetricInfo {
	return []MetricInfo{
		{Name: "CYCLES", Unit: "cycles", Period: 1000},
		{Name: "L1_DCM", Unit: "misses", Period: 100},
	}
}

func TestRecordAndTotals(t *testing.T) {
	p := NewProfile("app", 0, 0, twoMetrics())
	p.Record([]uint64{0x10, 0x20}, 0x30, 0, 1000)
	p.Record([]uint64{0x10, 0x20}, 0x30, 0, 1000)
	p.Record([]uint64{0x10, 0x20}, 0x34, 1, 100)
	p.Record([]uint64{0x10}, 0x14, 0, 1000)
	p.Record(nil, 0x4, 0, 1000)

	tot := p.Totals()
	if tot[0] != 4000 || tot[1] != 100 {
		t.Fatalf("totals = %v", tot)
	}
	st := p.Stats()
	if st.Frames != 3 {
		t.Fatalf("frames = %d, want 3 (root, 0x10, 0x20)", st.Frames)
	}
	if st.Leaves != 4 {
		t.Fatalf("leaves = %d, want 4", st.Leaves)
	}
	if st.Samples != 4 {
		t.Fatalf("samples = %d, want 4", st.Samples)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChildLookup(t *testing.T) {
	n := &Node{}
	if n.Child(5, false) != nil {
		t.Fatal("lookup created a child")
	}
	c := n.Child(5, true)
	if c == nil || c.CallPC != 5 {
		t.Fatal("create failed")
	}
	if n.Child(5, true) != c {
		t.Fatal("second create returned a different node")
	}
	if n.NumChildren() != 1 {
		t.Fatal("NumChildren wrong")
	}
}

func TestChildrenSorted(t *testing.T) {
	n := &Node{}
	for _, pc := range []uint64{9, 3, 7, 1} {
		n.Child(pc, true)
	}
	kids := n.Children()
	for i := 1; i < len(kids); i++ {
		if kids[i-1].CallPC >= kids[i].CallPC {
			t.Fatalf("children unsorted: %v", kids)
		}
	}
}

func TestSamplesSorted(t *testing.T) {
	n := &Node{}
	for _, pc := range []uint64{9, 3, 7} {
		n.AddSample(pc, 0, 1, 10)
	}
	rows := n.Samples()
	for i := 1; i < len(rows); i++ {
		if rows[i-1].PC >= rows[i].PC {
			t.Fatalf("samples unsorted")
		}
	}
}

func TestMetricIndex(t *testing.T) {
	p := NewProfile("app", 0, 0, twoMetrics())
	if p.MetricIndex("L1_DCM") != 1 || p.MetricIndex("CYCLES") != 0 || p.MetricIndex("X") != -1 {
		t.Fatal("MetricIndex wrong")
	}
}

func TestValidateCatchesBadRoot(t *testing.T) {
	p := NewProfile("app", 0, 0, twoMetrics())
	p.Root.CallPC = 7
	if err := p.Validate(); err == nil {
		t.Fatal("bad root accepted")
	}
	p2 := &Profile{}
	if err := p2.Validate(); err == nil {
		t.Fatal("nil root accepted")
	}
}

func randomProfile(seed int64) *Profile {
	rng := rand.New(rand.NewSource(seed))
	p := NewProfile("rnd", rng.Intn(100), rng.Intn(4), twoMetrics())
	for i := 0; i < 100; i++ {
		depth := rng.Intn(6)
		path := make([]uint64, depth)
		for j := range path {
			path[j] = uint64(rng.Intn(40))*4 + 0x400000
		}
		leaf := uint64(rng.Intn(40))*4 + 0x400000
		metric := rng.Intn(2)
		p.Record(path, leaf, metric, uint64(rng.Intn(5)+1)*p.Metrics[metric].Period)
	}
	return p
}

func profilesEqual(a, b *Profile) bool {
	if a.Program != b.Program || a.Rank != b.Rank || a.Thread != b.Thread {
		return false
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		return false
	}
	var eq func(x, y *Node) bool
	eq = func(x, y *Node) bool {
		if x.CallPC != y.CallPC {
			return false
		}
		xs, ys := x.Samples(), y.Samples()
		if !reflect.DeepEqual(xs, ys) {
			return false
		}
		xc, yc := x.Children(), y.Children()
		if len(xc) != len(yc) {
			return false
		}
		for i := range xc {
			if !eq(xc[i], yc[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.Root, b.Root)
}

func TestBinaryRoundTrip(t *testing.T) {
	p := randomProfile(1)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !profilesEqual(p, got) {
		t.Fatal("round trip changed the profile")
	}
}

// Property: round trip is lossless for arbitrary random profiles.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProfile(seed)
		var buf bytes.Buffer
		if err := p.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return profilesEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("CPP1"), // truncated after magic
	}
	for _, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded", c)
		}
	}
	// Valid prefix then truncation mid-tree.
	p := randomProfile(2)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated profile accepted")
	}
}

func TestReadRejectsImplausibleCounts(t *testing.T) {
	// Hand-craft: magic + program "" + rank 0 + thread 0 + 2000 metrics.
	var buf bytes.Buffer
	buf.WriteString("CPP1")
	buf.WriteByte(0)              // program len
	buf.WriteByte(0)              // rank
	buf.WriteByte(0)              // thread
	buf.WriteByte(0)              // fingerprint
	buf.Write([]byte{0xD0, 0x0F}) // uvarint 2000
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "metric count") {
		t.Fatalf("implausible metric count accepted: %v", err)
	}
}

func TestWriteRejectsNegativeRank(t *testing.T) {
	p := NewProfile("x", -1, 0, twoMetrics())
	if err := p.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestBinaryCompactness(t *testing.T) {
	p := randomProfile(3)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	// Sanity: varint encoding should stay well under 64 bytes per
	// (frame + leaf) on these small PCs.
	if buf.Len() > 64*(st.Frames+st.Leaves)+256 {
		t.Fatalf("encoding suspiciously large: %d bytes for %+v", buf.Len(), st)
	}
}

func TestStatsWithoutMetrics(t *testing.T) {
	// A profile with no metric columns still reports structural stats.
	p := NewProfile("x", 0, 0, nil)
	p.Root.Child(0x10, true)
	st := p.Stats()
	if st.Frames != 2 || st.Samples != 0 || st.Leaves != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	p := randomProfile(9)
	p.Fingerprint = 0xdeadbeefcafe
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != p.Fingerprint {
		t.Fatalf("fingerprint = %x, want %x", got.Fingerprint, p.Fingerprint)
	}
}

func TestEmptyNodeAccessors(t *testing.T) {
	n := &Node{}
	if len(n.Children()) != 0 || len(n.Samples()) != 0 || n.NumChildren() != 0 {
		t.Fatal("empty node accessors wrong")
	}
}

func TestV1CompatRoundTrip(t *testing.T) {
	// Old-format files must keep reading after the v2 switch.
	p := randomProfile(11)
	var buf bytes.Buffer
	if err := p.WriteV1(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("CPP1")) {
		t.Fatalf("WriteV1 magic = %q", buf.Bytes()[:4])
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !profilesEqual(p, got) {
		t.Fatal("v1 round trip changed the profile")
	}
}

func TestV2MagicAndChecksum(t *testing.T) {
	p := randomProfile(12)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("CPP2")) {
		t.Fatalf("Write magic = %q", data[:4])
	}
	// Any single flipped bit in the body must be caught by a section CRC
	// (or the parse), never accepted silently.
	for off := 4; off < len(data); off += 7 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
}

func TestV2TruncationAlwaysErrors(t *testing.T) {
	p := randomProfile(13)
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := 0; n < len(data); n++ {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
}

// The sampler's steady state — another sample in a context already in the
// trie — and the accessors every consumer walks the trie with allocate
// nothing.
func TestTrieAllocations(t *testing.T) {
	p := randomProfile(5)
	path, leaf := []uint64{0x400010, 0x400020, 0x400030}, uint64(0x400044)
	p.Record(path, leaf, 0, 1000)
	if n := testing.AllocsPerRun(100, func() { p.Record(path, leaf, 1, 100) }); n != 0 {
		t.Errorf("Record on an existing context: %v allocations", n)
	}
	var frames, rows int
	var walk func(n *Node)
	walk = func(n *Node) {
		frames++
		rows += len(n.Samples())
		for _, c := range n.Children() {
			walk(c)
		}
	}
	if n := testing.AllocsPerRun(10, func() { walk(p.Root) }); n != 0 {
		t.Errorf("walking Children/Samples: %v allocations", n)
	}
	if st := p.Stats(); frames%st.Frames != 0 || rows%st.Leaves != 0 {
		t.Fatalf("walk saw %d frames, %d rows; Stats %+v", frames, rows, st)
	}
}
