package profile_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lower"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/sampler"
	"repro/internal/workloads"
)

// The measurement pipeline's own profiles — every workload at 1, 7 and 64
// ranks — against the map trie: each profile's content is recorded into
// the oracle in a shuffled order (a map trie does not care, a sorted slice
// has to insert), and bytes, totals, shape and preorder must agree. This lives in the external test package because the fixtures
// need internal/mpi, which depends on this package.
func TestWorkloadProfilesMatchMapOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		im, err := lower.Lower(spec.Program, spec.LowerOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/ranks=%d", name, ranks), func(t *testing.T) {
				profs, err := mpi.Run(im, mpi.Config{NRanks: ranks, Params: spec.Params,
					Events: sampler.DefaultEvents(spec.Period)})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(ranks)))
				for _, p := range profs {
					if err := profile.CompareWithOracle(p, profile.Replay(p, rng.Perm)); err != nil {
						t.Fatalf("rank %d: %v", p.Rank, err)
					}
				}
			})
		}
	}
}

// TestReadSkipsLegacyTraceSection: testdata/legacy_traced.cpprof is rank 0
// of `hpcrun -w toy -ranks 2 -trace`, written while hpcrun captured
// time-dimension traces as a third section. Read discards that section,
// and what is left is the profile an untraced run records, byte for byte.
func TestReadSkipsLegacyTraceSection(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_traced.cpprof"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.Read(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := p.Write(&got); err != nil {
		t.Fatal(err)
	}
	if got.Len() >= len(legacy) {
		t.Fatalf("re-encoded %d bytes of a %d-byte traced file: no section was dropped", got.Len(), len(legacy))
	}
	spec, err := workloads.ByName("toy")
	if err != nil {
		t.Fatal(err)
	}
	im, err := lower.Lower(spec.Program, spec.LowerOpts)
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mpi.Run(im, mpi.Config{NRanks: 2, Params: spec.Params, Events: sampler.DefaultEvents(spec.Period)})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := profs[0].Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the legacy file reads as %d bytes, an untraced run writes %d", got.Len(), want.Len())
	}
}
