package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/bench/gen"
)

// TestWorkloadsShort runs every workload once, untraced and traced, at
// test sizes, and checks that the metrics each run emits are exactly the
// ones BENCHMARK.json names, that every check passed, and that every
// per-layer metric is produced by some workload (a metric no workload
// feeds is a misspelt name).
func TestWorkloadsShort(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadOrder))
	}

	fed := map[string]bool{}
	for i, w := range workloadOrder {
		if spec.Workloads[i].Name != w {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: w, seed: 1, seconds: 10, trace: traced, short: true, out: t.TempDir()}, spec)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d checks failed", w, traced, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %q missing or in unit %q, want %q", w, traced, m.Name, v.Unit, m.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, v.Value)
				}
				if v.Value != 0 {
					fed[m.Name] = true
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !fed[m.Name] && m.Name != "server.shed" { // shedding is a failure; 0 is the healthy reading
			t.Errorf("per-layer metric %q is 0 on every workload", m.Name)
		}
	}
}

// TestGeneratedDatabaseDeterministic: one seed gives the same v3 bytes
// twice and another seed gives others, for plain and perturbed trees.
func TestGeneratedDatabaseDeterministic(t *testing.T) {
	dir := t.TempDir()
	digest := func(c gen.CCT) [sha256.Size]byte {
		t.Helper()
		path := filepath.Join(dir, "x.db")
		if _, err := sutWriteCCT(c, 4, path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(data)
	}
	perturbed := func(seed int64) gen.CCT {
		return gen.CCT{Seed: seed, Scopes: 2000, Cols: 4, P: &gen.Perturb{Seed: seed + 1, Drop: 0.05, Add: 0.05, Scale: 0.4}}
	}
	for _, mk := range []func(int64) gen.CCT{
		func(seed int64) gen.CCT { return gen.CCT{Seed: seed, Scopes: 2000, Cols: 4} },
		perturbed,
	} {
		if digest(mk(1)) != digest(mk(1)) {
			t.Error("one seed gave two different databases")
		}
		if digest(mk(1)) == digest(mk(2)) {
			t.Error("two seeds gave the same database")
		}
	}
	if digest(perturbed(1)) == digest(gen.CCT{Seed: 1, Scopes: 2000, Cols: 4}) {
		t.Error("the perturbed tree equals its baseline")
	}
}

// TestSelfTimes: children that overlap cover their union, and their wall
// times add up to it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 20, End: 70, Parent: 0},
		{Name: "leaf", Start: 30, End: 40, Parent: 2},
	}
	summed, wall := selfTimes(spans)
	for i, want := range []float64{40, 50, 40, 10} {
		if summed[i] != want {
			t.Errorf("summed self time of %s = %v, want %v", spans[i].Name, summed[i], want)
		}
	}
	// a and b together last 100 but cover 60: each counts for 0.6 of itself.
	for i, want := range []float64{40, 30, 24, 6} {
		if wall[i] != want {
			t.Errorf("wall self time of %s = %v, want %v", spans[i].Name, wall[i], want)
		}
	}
}
