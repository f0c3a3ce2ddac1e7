package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/bench/gen"
)

// explore is one analyst on one big database: cold opens to the first hot
// path view, then a fixed command script over all three views on a fresh
// session. The database open and fault-in, the metric kernels, the views
// and the renderer do all the work; merge and server do none.
type explore struct {
	scopes, cols int
	opens        int // cold opens per iteration, each a first_view sample
	iters        float64

	path    string
	digests map[string][sha256.Size]byte // per command, from the first time it ran
}

// exploreScript is phase B. Every command but derived renders the view it
// leaves behind, so ls follows derived only.
var exploreScript = []string{
	"sort M1:excl", "derived r=$0/($1+1)", "ls", "sort r", "view callers", "expand 1",
	"view flat", "flatten", "view cc", "expandall",
}

func newExplore(short bool) workload {
	if short {
		return &explore{scopes: 3000, cols: 4, opens: 2, iters: 0.3}
	}
	return &explore{scopes: 60_000, cols: 4, opens: 4, iters: 1.3}
}

func (e *explore) rate() float64 { return e.iters }

func (e *explore) generate(dir string, seed int64) error {
	_, err := sutWriteCCT(gen.CCT{Seed: seed, Scopes: e.scopes, Cols: e.cols}, 1, filepath.Join(dir, "explore.db"))
	return err
}

func (e *explore) prepare(r *run) error {
	e.path = filepath.Join(r.dir, "explore.db")
	e.digests = map[string][sha256.Size]byte{}
	return nil
}

func (e *explore) close() error { return nil }

// sameAsFirst checks that a command printed what it printed the first time.
func (e *explore) sameAsFirst(r *run, key string, out []byte) {
	sum := sha256.Sum256(out)
	if first, seen := e.digests[key]; seen {
		r.check(sum == first, "%s: output differs from the first iteration's", key)
	} else {
		e.digests[key] = sum
	}
}

func (e *explore) iterate(r *run) (time.Duration, error) {
	tr := r.tr
	tr.clock = 0
	rendered := 0

	// session opens the database and runs lines on a fresh session.
	session := func(phase string, lines []string) error {
		snap, err := sutOpen(tr, e.path)
		if err != nil {
			return err
		}
		s := sutSession(tr, snap, r.jobs)
		for i, line := range lines {
			out, err := sutExec(tr, s, execSpan(line), line)
			if err != nil {
				return err
			}
			r.ops++
			e.sameAsFirst(r, fmt.Sprintf("%s:%d:%s", phase, i, line), out)
			rendered += len(out)
		}
		s.Close()
		return snap.Release()
	}

	for k := 0; k < e.opens; k++ {
		start := tr.clock
		if err := session("A", []string{"hot M0", "ls"}); err != nil {
			return 0, err
		}
		r.sample("first_view", tr.clock-start)
	}
	var m0, m1 runtime.MemStats
	if tr.log != nil {
		runtime.ReadMemStats(&m0)
	}
	if err := session("B", exploreScript); err != nil {
		return 0, err
	}
	if tr.log != nil {
		runtime.ReadMemStats(&m1)
		r.values["engine.session_mallocs"] = float64(m1.Mallocs - m0.Mallocs)
	}
	r.values["render.bytes"] = float64(rendered)
	return tr.clock, nil
}

func (e *explore) verify(r *run) error {
	st, err := os.Stat(e.path)
	if err != nil {
		return err
	}
	r.values["db_bytes"], r.values["db_scopes"] = float64(st.Size()), float64(e.scopes)
	r.values["expdb.db_bytes"] = float64(st.Size())

	// The system's hot path against a naive walk of Equation 3, and the
	// engine's command against both.
	off := newTracer(false)
	snap, err := sutOpen(off, e.path)
	if err != nil {
		return err
	}
	defer snap.Release()
	system, naive, err := hotPathLabels(snap, "M0")
	if err != nil {
		return err
	}
	r.check(slices.Equal(system, naive), "hot path is %q, a naive walk of Equation 3 gives %q", system, naive)
	s := sutSession(off, snap, r.jobs)
	out, err := sutExec(off, s, "check", "hot M0")
	s.Close()
	if err != nil {
		return err
	}
	first, _, _ := strings.Cut(string(out), "\n")
	r.check(first == "hot path ends at "+naive[len(naive)-1], "hot M0 says %q, the naive walk ends at %q", first, naive[len(naive)-1])

	if r.tr.log == nil {
		return nil
	}
	// Probes: the three ways into the file, apart from any query.
	for i := 0; i < 20; i++ {
		if err := probeOpenMapped(r.tr, e.path); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		if err := probeFaultAll(r.tr, e.path); err != nil {
			return err
		}
		if _, err := sutReadDB(r.tr, "expdb.read_eager", e.path); err != nil {
			return err
		}
	}
	return nil
}
