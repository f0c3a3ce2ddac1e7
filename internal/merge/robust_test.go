package merge

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/ingest"
)

// A nil profile in the slice panics inside Add (the correlate layer
// dereferences it); the worker must surface that as a typed error, not
// crash the process.
func TestMergePanicBecomesError(t *testing.T) {
	doc, profs := workloadFixture(t, "toy", 4)
	profs[1] = nil
	for _, procs := range []int{1, 2, 4} {
		_, err := profilesAt(procs, doc, profs)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: nil profile accepted", procs)
		}
		var pe *ingest.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("GOMAXPROCS=%d: error %T is not a PanicError: %v", procs, err, err)
		}
		if ingest.Classify(err) != ingest.ClassInternal {
			t.Fatalf("GOMAXPROCS=%d: panic classified as %v", procs, ingest.Classify(err))
		}
	}
}

// Fold returns a failing add's error and combines nothing, whatever the
// worker count; with no input added, Finish's ErrNoProfiles comes back.
func TestFoldErrors(t *testing.T) {
	doc, profs := workloadFixture(t, "toy", 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := Fold(doc, len(profs), func(acc *Accumulator, i int) error {
			if i == 2 {
				return boom
			}
			return acc.Add(profs[i])
		})
		if res != nil || err != boom {
			t.Fatalf("GOMAXPROCS=%d: Fold = %v, %v; want nil, %v", procs, res, err, boom)
		}
		skipAll := func(*Accumulator, int) error { return nil }
		if _, err := Fold(doc, len(profs), skipAll); !errors.Is(err, ErrNoProfiles) {
			t.Fatalf("GOMAXPROCS=%d: nothing added: err = %v, want ErrNoProfiles", procs, err)
		}
	}
}

// A poisoned accumulator (nil tree) panics inside Merge during the
// pairwise reduction; Combine must recover it into an error.
func TestCombinePanicRecovered(t *testing.T) {
	doc, profs := workloadFixture(t, "toy", 2)
	a := NewAccumulator(doc)
	if err := a.Add(profs[0]); err != nil {
		t.Fatal(err)
	}
	b := NewAccumulator(doc)
	if err := b.Add(profs[1]); err != nil {
		t.Fatal(err)
	}
	b.res.Tree = nil
	_, err := Combine([]*Accumulator{a, b})
	if err == nil {
		t.Fatal("poisoned accumulator accepted")
	}
	var pe *ingest.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a PanicError: %v", err, err)
	}
}
