package expdb

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/intern"
	"repro/internal/metric"
)

// The codec under every binary format. v1, v2 and v3 share their encodings
// — uvarints, little-endian float64s, names as references into a string
// table — and their payloads: the string table, the header, the metric
// descriptors, the preorder tree and the provenance record. They differ in
// how the payloads are framed (v1 back to back, v2 in checksummed sections,
// v3 in aligned indexed sections) and in what the tree carries per scope
// besides its nine header varints and child count, which a treeLayout
// names. One decoder over a byte slice reads every format, and one preorder
// walk (appendTree) writes every tree.

// treeLayout says what a format's tree stores inline per scope.
type treeLayout uint8

const (
	// inlineBase: the scope's Base value list (v1, v2; v3 keeps every
	// value in its column slabs).
	inlineBase treeLayout = 1 << iota
	// inlineOverrides: its inclusive and exclusive override lists (v1; v2
	// gives them a section of their own).
	inlineOverrides
)

// minNodeBytes is the least a scope takes in any tree: nine header varints
// and a child count.
const minNodeBytes = 10

// --- encoding --------------------------------------------------------

type strTable struct {
	byVal map[string]uint64
	bySym map[intern.Sym]uint64
	vals  []string
}

func newStrTable() *strTable {
	t := &strTable{byVal: map[string]uint64{}, bySym: map[intern.Sym]uint64{}}
	t.ref("") // index 0 is always the empty string
	return t
}

func (t *strTable) ref(s string) uint64 {
	if i, ok := t.byVal[s]; ok {
		return i
	}
	i := uint64(len(t.vals))
	t.byVal[s] = i
	t.vals = append(t.vals, s)
	return i
}

// refSym references an interned symbol's string. The sym-keyed cache makes
// the per-node path a single integer map probe; misses delegate to ref, so
// table construction order — and hence the output bytes — are exactly those
// of the string-keyed writer.
func (t *strTable) refSym(y intern.Sym) uint64 {
	if i, ok := t.bySym[y]; ok {
		return i
	}
	i := t.ref(y.String())
	t.bySym[y] = i
	return i
}

var (
	kindNames = []string{"raw", "derived", "summary", "computed"}
	opNames   = []string{"", "sum", "mean", "min", "max", "stddev"}
)

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendVals appends a value list: its length, then { col, f64 } per entry.
func appendVals(b []byte, vals []colVal) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, cv := range vals {
		b = appendF64(binary.AppendUvarint(b, uint64(cv.col)), cv.val)
	}
	return b
}

// encodeHead interns every string the experiment refers to, in a fixed
// order, and builds the three payloads every binary format starts with: the
// string table, the header (program, ranks) and the metric descriptors.
func (e *Experiment) encodeHead() (*strTable, [3][]byte, error) {
	tab := newStrTable()
	tab.ref(e.Program)
	descs := descsOf(e.Tree.Reg)
	for _, d := range descs {
		tab.ref(d.Name)
		tab.ref(d.Unit)
		tab.ref(d.Formula)
	}
	core.Walk(e.Tree.Root, func(n *core.Node) bool {
		tab.refSym(n.Name)
		tab.refSym(n.File)
		tab.refSym(n.CallFile)
		tab.refSym(n.Mod)
		return true
	})

	var head [3][]byte
	head[0] = binary.AppendUvarint(nil, uint64(len(tab.vals)))
	for _, s := range tab.vals {
		head[0] = appendStr(head[0], s)
	}
	head[1] = binary.AppendUvarint(binary.AppendUvarint(nil, tab.ref(e.Program)), uint64(e.NRanks))
	head[2] = binary.AppendUvarint(nil, uint64(len(descs)))
	for _, d := range descs {
		kind, op := slices.Index(kindNames, d.Kind), slices.Index(opNames, d.Op)
		if kind < 0 || op < 0 {
			return nil, head, fmt.Errorf("expdb: unknown metric kind %q or op %q", d.Kind, d.Op)
		}
		for _, v := range [...]uint64{tab.ref(d.Name), tab.ref(d.Unit), uint64(kind), d.Period, tab.ref(d.Formula), uint64(op), uint64(d.Source)} {
			head[2] = binary.AppendUvarint(head[2], v)
		}
	}
	return tab, head, nil
}

// appendTree is the one preorder walk behind every binary format's tree: it
// appends the root count, then per scope its nine header varints, the lists
// layout puts inline and its child count. It returns the scopes in
// preorder, which are v3's rows 1..n and the indexes of v2's overrides.
func (e *Experiment) appendTree(b []byte, tab *strTable, layout treeLayout) ([]byte, []*core.Node) {
	inclCols, exclCols := overrideCols(e.Tree.Reg)
	var nodes []*core.Node
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		nodes = append(nodes, n)
		flags := uint64(0)
		if n.NoSource {
			flags |= 1
		}
		for _, v := range [...]uint64{
			uint64(n.Kind),
			tab.refSym(n.Name), tab.refSym(n.File), uint64(n.Line), n.ID,
			uint64(n.CallLine), tab.refSym(n.CallFile), tab.refSym(n.Mod),
			flags,
		} {
			b = binary.AppendUvarint(b, v)
		}
		if layout&inlineBase != 0 {
			b = binary.AppendUvarint(b, uint64(n.Base.Len()))
			n.Base.Range(func(id int, v float64) {
				b = appendF64(binary.AppendUvarint(b, uint64(id)), v)
			})
		}
		if layout&inlineOverrides != 0 {
			b = appendVals(appendVals(b, overrideValues(&n.Incl, inclCols)), overrideValues(&n.Excl, exclCols))
		}
		b = binary.AppendUvarint(b, uint64(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(e.Tree.Root.Children)))
	for _, c := range e.Tree.Root.Children {
		walk(c)
	}
	return b, nodes
}

// encodeOverrides builds v2's overrides section: an entry per scope with
// override values, keyed by its preorder index — the root, which no tree
// lists, by the index one past the last scope. Nil when there are none.
func encodeOverrides(t *core.Tree, nodes []*core.Node) []byte {
	inclCols, exclCols := overrideCols(t.Reg)
	var b []byte
	count := uint64(0)
	for i := 0; i <= len(nodes); i++ {
		n := t.Root
		if i < len(nodes) {
			n = nodes[i]
		}
		incl, excl := overrideValues(&n.Incl, inclCols), overrideValues(&n.Excl, exclCols)
		if len(incl)+len(excl) > 0 {
			count++
			b = appendVals(appendVals(binary.AppendUvarint(b, uint64(i)), incl), excl)
		}
	}
	if count == 0 {
		return nil
	}
	return append(binary.AppendUvarint(nil, count), b...)
}

func encodeProvenance(rep *ingest.Report) []byte {
	b := binary.AppendUvarint(nil, uint64(rep.Attempted))
	b = binary.AppendUvarint(b, uint64(rep.Merged))
	b = binary.AppendUvarint(b, uint64(len(rep.Bad)))
	for _, bad := range rep.Bad {
		b = appendStr(b, bad.Path)
		b = binary.AppendUvarint(b, uint64(bad.Rank+1))   // 0 encodes "unknown" (-1)
		b = binary.AppendUvarint(b, uint64(bad.Offset+1)) // likewise
		b = binary.AppendUvarint(b, uint64(bad.Class))
		b = appendStr(b, bad.Message)
	}
	return b
}

// --- decoding --------------------------------------------------------

// decoder reads every binary format from one byte slice. The bytes left
// bound every count it reads — each counted item takes at least a known
// number of bytes — so a lying count errors out instead of allocating.
// Besides its position it keeps what earlier sections established for the
// later ones: the string table, the metric registry and the scopes in
// preorder.
type decoder struct {
	buf    []byte
	pos    int
	syms   []intern.Sym
	reg    *metric.Registry
	layout treeLayout
	nodes  []*core.Node
	// pending counts the scopes open sibling lists have announced but not
	// started. Every one of them needs minNodeBytes of what is left, which
	// bounds every scope count — and what a lying one makes the tree
	// allocate.
	pending uint64
	seen    sibTable
}

func (d *decoder) left() int { return len(d.buf) - d.pos }

func (d *decoder) uvarint() (uint64, error) {
	if d.pos < len(d.buf) && d.buf[d.pos] < 0x80 {
		d.pos++
		return uint64(d.buf[d.pos-1]), nil
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		return 0, fmt.Errorf("expdb: varint overflows a 64-bit integer")
	}
	d.pos += n
	return v, nil
}

// varints reads len(r) uvarints into r.
func (d *decoder) varints(r []uint64) (err error) {
	for j := range r {
		if r[j], err = d.uvarint(); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) f64() (float64, error) {
	if d.left() < 8 {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return math.Float64frombits(v), nil
}

// count reads the length of a list whose items take at least size bytes.
func (d *decoder) count(what string, size int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.left()/size) {
		return 0, fmt.Errorf("expdb: implausible %s count %d", what, n)
	}
	return int(n), nil
}

func (d *decoder) ref(i uint64) (intern.Sym, error) {
	if i >= uint64(len(d.syms)) {
		return 0, fmt.Errorf("expdb: string ref %d out of range", i)
	}
	return d.syms[i], nil
}

// bytes reads a length-prefixed string, aliasing the input.
func (d *decoder) bytes() ([]byte, error) {
	l, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if l > 1<<20 || l > uint64(d.left()) {
		return nil, fmt.Errorf("expdb: implausible string length %d", l)
	}
	b := d.buf[d.pos : d.pos+int(l)]
	d.pos += int(l)
	return b, nil
}

// vals reads a value list of plane p into v: Base values are added,
// override values set. Each must name a column valueCol accepts.
func (d *decoder) vals(v *metric.View, p int) error {
	n, err := d.count("value", 9) // col and f64
	if err != nil {
		return err
	}
	for ; n > 0; n-- {
		c, err := d.uvarint()
		if err != nil {
			return err
		}
		x, err := d.f64()
		if err != nil {
			return err
		}
		col, err := valueCol(d.reg, c, p)
		if err != nil {
			return err
		}
		if p == planeBase {
			v.Add(col, x)
		} else {
			v.Set(col, x)
		}
	}
	return nil
}

// section decodes, at d's position, one of the sections every format has:
// the string table, the header, the metric descriptors or the tree.
func (d *decoder) section(id byte, e *Experiment) error {
	var err error
	switch id {
	case dbSecStrings:
		err = d.strings()
	case dbSecHeader:
		err = d.header(e)
	case dbSecMetrics:
		d.reg, err = d.metrics()
	case dbSecTree:
		e.Tree = core.NewTree(e.Program, d.reg)
		err = d.tree(e.Tree)
	}
	return err
}

// strings reads the string table. Each distinct string is interned once
// per process: intern.B probes with the input bytes and copies only a
// string it has never seen.
func (d *decoder) strings() error {
	n, err := d.count("string", 1)
	if err != nil {
		return err
	}
	d.syms = make([]intern.Sym, 0, n)
	for ; n > 0; n-- {
		b, err := d.bytes()
		if err != nil {
			return err
		}
		d.syms = append(d.syms, intern.B(b))
	}
	return nil
}

func (d *decoder) header(e *Experiment) error {
	var f [2]uint64 // program ranks
	if err := d.varints(f[:]); err != nil {
		return err
	}
	prog, err := d.ref(f[0])
	if err != nil {
		return err
	}
	if f[1] > math.MaxInt32 {
		return fmt.Errorf("expdb: implausible rank count %d", f[1])
	}
	e.Program, e.NRanks = prog.String(), int(f[1])
	return nil
}

// metrics reads the metric descriptors and rebuilds their registry.
func (d *decoder) metrics() (*metric.Registry, error) {
	n, err := d.count("metric", 7) // seven varints each
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, fmt.Errorf("expdb: implausible metric count %d", n)
	}
	descs := make([]metricDesc, n)
	for i := range descs {
		var f [7]uint64 // name unit kind period formula op source
		if err := d.varints(f[:]); err != nil {
			return nil, err
		}
		var s [3]intern.Sym
		for j, ref := range [3]uint64{f[0], f[1], f[4]} {
			if s[j], err = d.ref(ref); err != nil {
				return nil, err
			}
		}
		if f[2] >= uint64(len(kindNames)) || f[5] >= uint64(len(opNames)) {
			return nil, fmt.Errorf("expdb: bad kind byte %d or op byte %d", f[2], f[5])
		}
		descs[i] = metricDesc{
			Name: s[0].String(), Unit: s[1].String(), Kind: kindNames[f[2]], Period: f[3],
			Formula: s[2].String(), Op: opNames[f[5]], Source: int(f[6]),
		}
	}
	return rebuildRegistry(descs)
}

// tree reads a tree into t: the root count, then every scope in preorder
// with the lists d.layout puts inline, collected in d.nodes (v3's rows 1..n,
// v2's override indexes).
func (d *decoder) tree(t *core.Tree) error {
	scopes := 0
	if d.layout == 0 {
		// Without inline lists the tree is the root count and ten varints
		// per scope, and every varint ends in its only byte below 0x80:
		// counting those sizes the arena and the preorder list exactly (a
		// malformed tree at most over-reserves, to one scope per
		// minNodeBytes).
		ends := 0
		for _, b := range d.buf[d.pos:] {
			if b < 0x80 {
				ends++
			}
		}
		scopes = max(ends-1, 0) / minNodeBytes
		t.Reserve(scopes)
	}
	d.nodes = make([]*core.Node, 0, scopes)
	nRoots, err := d.uvarint()
	if err != nil {
		return err
	}
	return d.children(t.Root, nRoots, "root", 0)
}

// children reads parent's sibling list, count scopes with their subtrees.
func (d *decoder) children(parent *core.Node, count uint64, what string, depth int) error {
	if count == 0 {
		return nil
	}
	if room := uint64(d.left()) / minNodeBytes; count > room || d.pending > room-count {
		return fmt.Errorf("expdb: implausible %s count %d", what, count)
	}
	if depth > 100000 {
		return fmt.Errorf("expdb: tree too deep")
	}
	d.pending += count
	parent.GrowChildren(int(count))
	for ; count > 0; count-- {
		d.pending--
		// kind name file line id callLine callFile mod flags
		var r [9]uint64
		if err := d.record(&r); err != nil {
			return err
		}
		if r[0] == uint64(core.KindRoot) || r[0] > uint64(core.KindCallSite) {
			return fmt.Errorf("expdb: bad node kind %d", r[0])
		}
		if ref := max(r[1], r[2], r[6], r[7]); ref >= uint64(len(d.syms)) {
			return fmt.Errorf("expdb: string ref %d out of range", ref)
		}
		n := parent.AppendChild(core.Key{Kind: core.Kind(r[0]), Name: d.syms[r[1]], File: d.syms[r[2]], Line: int(r[3]), ID: r[4]})
		d.nodes = append(d.nodes, n)
		n.CallLine, n.CallFile, n.Mod, n.NoSource = int(r[5]), d.syms[r[6]], d.syms[r[7]], r[8]&1 != 0
		if d.layout&inlineBase != 0 {
			if err := d.vals(&n.Base, planeBase); err != nil {
				return err
			}
		}
		if d.layout&inlineOverrides != 0 {
			if err := d.overrideLists(n); err != nil {
				return err
			}
		}
		nc, err := d.uvarint()
		if err != nil {
			return err
		}
		if err := d.children(n, nc, "child", depth+1); err != nil {
			return err
		}
	}
	return d.seen.unique(parent.Children)
}

// record reads a scope's nine header varints into r: a single byte inline,
// a longer varint through uvarint.
func (d *decoder) record(r *[9]uint64) error {
	p := d.pos
	for j := range r {
		if p < len(d.buf) && d.buf[p] < 0x80 {
			r[j] = uint64(d.buf[p])
			p++
			continue
		}
		d.pos = p
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		r[j], p = v, d.pos
	}
	d.pos = p
	return nil
}

// sibSeed keys the sibling table's hash per process, as Go seeds its
// maps: a crafted file cannot aim a wide list at one probe chain.
var sibSeed = rand.Uint64()

// sibWork counts the table slots the sibling check has probed or
// allocated, over the process: the work a read does is linear in its
// scopes (TestSiblingCheckLinear).
var sibWork atomic.Int64

// sibTable is the duplicate-key check of sibling lists: an open-addressed
// table of indexes into the list, each slot stamped with the list that
// wrote it, so a new list starts with one increment instead of a clear —
// clearing a Go map costs its capacity, the widest list seen so far.
type sibTable struct {
	slots []sibSlot // a power of two long
	stamp uint32
}

type sibSlot struct{ stamp, i uint32 }

// unique rejects a sibling list in which two scopes share a key: Child
// would find only one of them, and a writer would merge them. Every reader
// builds its scopes with AppendChild and answers for this rule here.
func (t *sibTable) unique(ns []*core.Node) error {
	if len(ns) <= 8 { // a few 32-byte compares beat hashing
		for i, a := range ns {
			for _, b := range ns[:i] {
				if a.Key == b.Key {
					return fmt.Errorf("expdb: duplicate sibling %s", a.Label())
				}
			}
		}
		return nil
	}
	size := 16
	for size < 2*len(ns) {
		size *= 2
	}
	work := 0
	if t.stamp++; t.stamp == 0 || size > len(t.slots) { // a fresh table on growth and on wrap
		work = max(size, len(t.slots))
		t.slots, t.stamp = make([]sibSlot, work), 1
	}
	mask := uint64(size - 1)
	for i, a := range ns {
		for h := sibHash(&a.Key); ; h++ {
			work++
			s := &t.slots[h&mask]
			if s.stamp != t.stamp {
				*s = sibSlot{t.stamp, uint32(i)}
				break
			}
			if ns[s.i].Key == a.Key {
				return fmt.Errorf("expdb: duplicate sibling %s", a.Label())
			}
		}
	}
	sibWork.Add(int64(work))
	return nil
}

// sibHash mixes a key's fields under the process seed, multiply and
// xorshift at a time.
func sibHash(k *core.Key) uint64 {
	h := (uint64(k.Name)<<32 | uint64(k.File)) ^ sibSeed
	h = (h ^ h>>31) * 0x9e3779b97f4a7c15
	h ^= uint64(k.Line)<<8 | uint64(k.Kind)
	h = (h ^ h>>29) * 0xbf58476d1ce4e5b9
	h ^= k.ID
	h = (h ^ h>>32) * 0x94d049bb133111eb
	return h ^ h>>29
}

// overrideLists reads one scope's inclusive and exclusive override lists
// into its presented planes.
func (d *decoder) overrideLists(n *core.Node) error {
	if err := d.vals(&n.Incl, planeIncl); err != nil {
		return err
	}
	return d.vals(&n.Excl, planeExcl)
}

// overrides reads v2's overrides section: entries addressing scopes by
// preorder index, the index one past the last addressing the root.
func (d *decoder) overrides(root *core.Node) error {
	n, err := d.count("override entry", 3) // index and two list lengths
	if err != nil {
		return err
	}
	for ; n > 0; n-- {
		idx, err := d.uvarint()
		if err != nil {
			return err
		}
		if idx > uint64(len(d.nodes)) {
			return fmt.Errorf("expdb: override node index %d out of range", idx)
		}
		scope := root
		if idx < uint64(len(d.nodes)) {
			scope = d.nodes[idx]
		}
		if err := d.overrideLists(scope); err != nil {
			return err
		}
	}
	return nil
}

func (d *decoder) provenance() (*ingest.Report, error) {
	attempted, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	merged, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if attempted > math.MaxInt32 || merged > math.MaxInt32 {
		return nil, fmt.Errorf("expdb: implausible provenance counts %d/%d", merged, attempted)
	}
	n, err := d.count("quarantine", 5) // two strings and three varints
	if err != nil {
		return nil, err
	}
	rep := &ingest.Report{Attempted: int(attempted), Merged: int(merged)}
	for ; n > 0; n-- {
		path, err := d.bytes()
		if err != nil {
			return nil, err
		}
		var f [3]uint64 // rank+1, offset+1, class
		if err := d.varints(f[:]); err != nil {
			return nil, err
		}
		if f[0] > math.MaxInt32 {
			return nil, fmt.Errorf("expdb: implausible quarantined rank %d", f[0])
		}
		if f[2] > uint64(ingest.ClassInternal) {
			return nil, fmt.Errorf("expdb: bad error class %d", f[2])
		}
		msg, err := d.bytes()
		if err != nil {
			return nil, err
		}
		rep.Bad = append(rep.Bad, ingest.BadRank{
			Path: string(path), Rank: int(f[0]) - 1, Offset: int64(f[1]) - 1,
			Class: ingest.Class(f[2]), Message: string(msg),
		})
	}
	return rep, nil
}
