package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// atGOMAXPROCS runs f at GOMAXPROCS 1, 2, 4 and 16 in turn — the worker
// counts of ExpandAll's pool — and restores the old value when the test
// ends. Tests that call it must not run in parallel.
func atGOMAXPROCS(t *testing.T, f func(procs int)) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	for _, procs := range []int{1, 2, 4, 16} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// A poisoned instance list (nil instance) panics inside buildSubtrie;
// ExpandAll must recover it into an error naming the root instead of
// crashing.
func TestExpandAllRecoversPanic(t *testing.T) {
	atGOMAXPROCS(t, func(procs int) {
		v := BuildCallersView(Fig1Tree())
		if len(v.Roots) == 0 {
			t.Fatal("no roots")
		}
		st := v.roots[v.Roots[0]]
		st.instances = append(st.instances, nil)
		err := v.ExpandAllCtx(context.Background())
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: poisoned subtrie accepted", procs)
		}
		if !strings.Contains(err.Error(), "panic expanding callers view") {
			t.Fatalf("GOMAXPROCS=%d: err = %v", procs, err)
		}
	})
}

func TestExpandAllCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	atGOMAXPROCS(t, func(procs int) {
		v := BuildCallersView(Fig1Tree())
		if err := v.ExpandAllCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want context.Canceled", procs, err)
		}
	})
}

// A clean tree still expands without error through the error-returning
// entry points.
func TestExpandAllNoError(t *testing.T) {
	v := BuildCallersView(Fig1Tree())
	if err := v.ExpandAll(); err != nil {
		t.Fatal(err)
	}
	v2 := BuildCallersView(Fig1Tree())
	if err := v2.ExpandAllParallel(3); err != nil {
		t.Fatal(err)
	}
}
