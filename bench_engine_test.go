package repro

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expdb"
	"repro/internal/render"
)

// rowPathCCT is the row-path benchmarks' database: the 60k-scope synthetic
// CCT with three more raw columns, each set on a thinning share of the
// statements like the end-to-end benchmark's, so a line has eight cells and
// some of them blank.
func rowPathCCT(b *testing.B) *core.Tree {
	b.Helper()
	t := syntheticCCT(60_000, 17)
	for _, name := range []string{"M1", "M2", "M3"} {
		if _, err := t.Reg.AddRaw(name, "events", 1); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(17))
	core.Walk(t.Root, func(n *core.Node) bool {
		if n.Kind == core.KindStmt {
			for col := 1; col < 4; col++ {
				if rng.Intn(1<<col) == 0 {
					n.Base.Add(col, float64(rng.Intn(100)+1))
				}
			}
		}
		return true
	})
	t.ComputeMetrics()
	return t
}

// BenchmarkRenderRows measures the formatter alone: 60 000 visible rows of
// eight cells, already ordered, written to io.Discard. allocs/op is the
// contract — the renderer's handful, nothing per row.
func BenchmarkRenderRows(b *testing.B) {
	t := rowPathCCT(b)
	s := engine.NewSession(engine.NewSnapshot(expdb.New(t)))
	defer s.Close()
	if err := s.ExpandAll(t.Root); err != nil {
		b.Fatal(err)
	}
	rows := s.VisibleRows()
	opt := render.Options{Totals: t.Total}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := render.RenderRows(io.Discard, rows, t.Reg, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpandAllRender measures what the `expandall` command costs a
// fresh session: open every scope, sort every sibling list of two or more
// scopes, and render every row.
func BenchmarkExpandAllRender(b *testing.B) {
	snap := engine.NewSnapshot(expdb.New(rowPathCCT(b)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := engine.NewSession(snap)
		if _, err := engine.Exec(s, "expandall", io.Discard); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkConcurrentSessions measures the presentation engine's many-users,
// one-database scaling: N sessions share one immutable snapshot of a
// 20k-scope CCT and each runs a realistic interaction — register a private
// derived metric, hot-path drill-down, sort by the derived column, render.
// The sub-benchmarks (sessions=1/8/32) bound the cost of sharing the
// snapshot and of the per-session overlay under contention; ns/op is the
// wall time for ALL sessions of one round to finish. Baseline numbers live
// in BENCH_engine.json.
func BenchmarkConcurrentSessions(b *testing.B) {
	tree := syntheticCCT(20_000, 11)
	snap := engine.NewSnapshot(expdb.New(tree))
	workload := func() error {
		s := engine.NewSession(snap)
		defer s.Close()
		if err := s.AddDerivedMetric("w", "$0*4 - $0/2"); err != nil {
			return err
		}
		if len(s.HotPath(0)) == 0 {
			return fmt.Errorf("empty hot path")
		}
		d := s.Registry().ByName("w")
		s.SetSort(core.SortSpec{MetricID: d.ID})
		if len(s.VisibleRows()) == 0 {
			return fmt.Errorf("no rows")
		}
		return s.Render(io.Discard, render.Options{})
	}
	for _, sessions := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, sessions)
				for j := 0; j < sessions; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						errs[j] = workload()
					}(j)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
