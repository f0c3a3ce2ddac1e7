package profile_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lower"
	"repro/internal/mpi"
	"repro/internal/profile"
	"repro/internal/sampler"
	"repro/internal/workloads"
)

// The measurement pipeline's own profiles — every workload at 1, 7 and 64
// ranks, traced — against the map trie: each profile's content is recorded
// into the oracle in a shuffled order (a map trie does not care, a sorted
// slice has to insert), and bytes, totals, shape, preorder and trace remap
// must agree. This lives in the external test package because the fixtures
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
					Events: sampler.DefaultEvents(spec.Period), Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(ranks)))
				for _, p := range profs {
					if err := profile.CompareWithOracle(p, profile.Replay(p, rng.Perm)); err != nil {
						t.Fatalf("rank %d: %v", p.Rank, err)
					}
					p.Trace.Close()
				}
			})
		}
	}
}
