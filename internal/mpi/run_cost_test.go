package mpi

import (
	"math"
	"testing"

	"repro/internal/isa"
	"repro/internal/lower"
	"repro/internal/sampler"
	"repro/internal/workloads"
)

func s3dImage(t *testing.T) (*isa.Image, Config) {
	t.Helper()
	spec, err := workloads.ByName("s3d")
	if err != nil {
		t.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	return im, Config{Params: spec.Params, Seed: 1, Events: sampler.DefaultEvents(spec.Period)}
}

// Run hashes the image once and stamps every rank's profile with it, also
// a rank that never takes a sample.
func TestRunStampsFingerprint(t *testing.T) {
	im, cfg := s3dImage(t)
	want := im.Fingerprint()
	for _, ranks := range []int{1, 64} {
		cfg.NRanks = ranks
		profs, err := Run(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range profs {
			if p.Fingerprint != want {
				t.Fatalf("%d ranks: rank %d fingerprint %x, want %x", ranks, p.Rank, p.Fingerprint, want)
			}
		}
	}
	cfg.NRanks, cfg.Events = 1, sampler.DefaultEvents(1<<62)
	profs, err := Run(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := profs[0].Stats(); st.Leaves != 0 || profs[0].Fingerprint != want {
		t.Fatalf("unsampled rank: %d sample rows, fingerprint %x; want 0 rows, fingerprint %x", st.Leaves, profs[0].Fingerprint, want)
	}
}

// The allocation contract of a 64-rank run of s3d: 2 375 allocations a run
// with frames, child lists, count rows and the sampler's call-path context
// carved from per-profile slabs, against 4 360 when each was allocated
// alone. Most of what is left is per rank (VM, sampler, profile). The
// fewest of three runs is bounded: a goroutine's descriptor is allocated
// only when the runtime has none free, and the race detector adds one
// allocation per goroutine (2 439 in a -race build).
func TestRunAllocs(t *testing.T) {
	im, cfg := s3dImage(t)
	cfg.NRanks = 64
	least := math.Inf(1)
	for range 3 {
		least = min(least, testing.AllocsPerRun(1, func() {
			if _, err := Run(im, cfg); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if least > 2500 {
		t.Errorf("mpi.Run of s3d at 64 ranks: %v allocations, want at most 2500", least)
	}
}
