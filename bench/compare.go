package main

import (
	"crypto/sha256"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/gen"
)

// compare is the hpcdiff sequence on two big databases, the second a
// perturbation of the first at another rank count. The diff's structural
// union does nearly all the work and nothing else is loaded.
type compare struct {
	scopes, cols int
	iters        float64

	pathA, pathB string
	first        [sha256.Size]byte // the report the first iteration printed
	haveFirst    bool
}

func newCompare(short bool) workload {
	if short {
		return &compare{scopes: 3000, cols: 4, iters: 0.3}
	}
	return &compare{scopes: 150_000, cols: 4, iters: 2.2}
}

func (c *compare) rate() float64 { return c.iters }

func (c *compare) generate(dir string, seed int64) error {
	base := gen.CCT{Seed: seed, Scopes: c.scopes, Cols: c.cols}
	if _, err := sutWriteCCT(base, 4, filepath.Join(dir, "a.db")); err != nil {
		return err
	}
	base.P = &gen.Perturb{Seed: seed + 1, Drop: 0.05, Add: 0.05, Scale: 0.4}
	_, err := sutWriteCCT(base, 16, filepath.Join(dir, "b.db"))
	return err
}

func (c *compare) prepare(r *run) error {
	c.pathA, c.pathB = filepath.Join(r.dir, "a.db"), filepath.Join(r.dir, "b.db")
	c.haveFirst = false
	return nil
}

func (c *compare) close() error { return nil }

func (c *compare) iterate(r *run) (time.Duration, error) {
	tr := r.tr
	tr.clock = 0
	var m0, m1 runtime.MemStats
	if tr.log != nil {
		runtime.ReadMemStats(&m0)
	}
	a, err := sutReadDB(tr, "diff.read_inputs", c.pathA)
	if err != nil {
		return 0, err
	}
	b, err := sutReadDB(tr, "diff.read_inputs", c.pathB)
	if err != nil {
		return 0, err
	}
	res, err := sutDiff(tr, a, b, r.jobs)
	if err != nil {
		return 0, err
	}
	out, err := sutReport(tr, res)
	if err != nil {
		return 0, err
	}
	r.sample("first_view", tr.clock)
	sutRecompute(tr, res)
	if _, err := sutReport(tr, res); err != nil {
		return 0, err
	}
	r.ops += 2 // two reports a user waited for
	if tr.log != nil {
		runtime.ReadMemStats(&m1)
		r.values["diff.mallocs"] = float64(m1.Mallocs - m0.Mallocs)
		r.values["diff.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	}
	iter := tr.clock

	sum := sha256.Sum256(out)
	if c.haveFirst {
		r.check(sum == c.first, "diff report differs from the first iteration's")
	}
	c.first, c.haveFirst = sum, true
	r.check(len(out) > 0, "diff report is empty")
	r.values["diff.union_scopes"] = float64(res.Tree.NumNodes())
	return iter, nil
}

func (c *compare) verify(r *run) error {
	var bytes, scopes float64
	off := newTracer(false)
	for _, path := range []string{c.pathA, c.pathB} {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		exp, err := sutReadDB(off, "check", path)
		if err != nil {
			return err
		}
		bytes += float64(st.Size())
		scopes += float64(exp.Tree.NumNodes())
	}
	r.values["db_bytes"], r.values["db_scopes"] = bytes, scopes
	r.values["expdb.db_bytes"] = bytes

	// Every diff below reads its inputs afresh, as hpcdiff does.
	diffOf := func(first, second string) (map[string]float64, error) {
		x, err := sutReadDB(off, "check", first)
		if err != nil {
			return nil, err
		}
		y, err := sutReadDB(off, "check", second)
		if err != nil {
			return nil, err
		}
		res, err := sutDiff(off, x, y, r.jobs)
		if err != nil {
			return nil, err
		}
		return deltaSample(res), nil
	}

	// A database diffed against itself has no delta anywhere.
	self, err := diffOf(c.pathA, c.pathA)
	if err != nil {
		return err
	}
	nonzero := 0
	for _, d := range self {
		if d != 0 {
			nonzero++
		}
	}
	r.check(nonzero == 0 && len(self) > 0, "self-diff has %d of %d scopes with a non-zero delta", nonzero, len(self))

	// Swapping the inputs negates every delta.
	fwd, err := diffOf(c.pathA, c.pathB)
	if err != nil {
		return err
	}
	rev, err := diffOf(c.pathB, c.pathA)
	if err != nil {
		return err
	}
	bad := 0
	for path, d := range fwd {
		if got, ok := rev[path]; !ok || math.Abs(got+d) > 1e-9*max(math.Abs(d), 1) {
			bad++
		}
	}
	r.check(bad == 0 && len(fwd) > 0, "%d of %d scopes do not negate their delta when the inputs are swapped", bad, len(fwd))
	return nil
}
