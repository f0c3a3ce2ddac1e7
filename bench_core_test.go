package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/expdb"
)

// Core-representation benchmarks (E-CORE): the in-memory CCT hot paths the
// symbol-interned core targets — tree construction (Child miss + node
// allocation), binary database load, and child lookup (Child hit). Baseline
// numbers before and after interning live in BENCH_core.json.

// BenchmarkBuildCCT measures constructing a ~50k-scope synthetic CCT plus
// the Equation 1/2 metric computation: the CCT-build hot path of hpcprof.
func BenchmarkBuildCCT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := syntheticCCT(50_000, 42)
		if t.NumNodes() < 50_000 {
			b.Fatal("tree too small")
		}
	}
}

// BenchmarkReadBinary measures loading the compact binary database of the
// MOAB workload: string table, node keys, and base vectors.
func BenchmarkReadBinary(b *testing.B) {
	e := expdb.New(mustSeqTreeB(b, "moab"))
	var buf bytes.Buffer
	if err := e.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expdb.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChildLookup measures Node.Child hit lookups over every
// (parent, key) edge of a 20k-scope tree — the operation every sample
// attribution and every merge walk performs once per scope.
func BenchmarkChildLookup(b *testing.B) {
	t := syntheticCCT(20_000, 7)
	type edge struct {
		parent *core.Node
		key    core.Key
	}
	var edges []edge
	core.Walk(t.Root, func(n *core.Node) bool {
		if n.Kind != core.KindRoot {
			edges = append(edges, edge{parent: n.Parent, key: n.Key})
		}
		return true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &edges[i%len(edges)]
		if e.parent.Child(e.key, false) == nil {
			b.Fatal("lookup miss")
		}
	}
}

// mustSeqTreeB aliases mustSeqTree for the core benches (kept separate so
// the fixture name used by BENCH_core.json stays greppable).
func mustSeqTreeB(b *testing.B, name string) *core.Tree { return mustSeqTree(b, name) }
