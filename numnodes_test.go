package repro

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/expdb"
)

// TestNumNodesMatchesWalk: Tree.NumNodes reads the store's row count
// instead of walking the tree. The walk stays the oracle, over every way a
// tree is made: generated, merged, decoded from each format and diffed.
func TestNumNodesMatchesWalk(t *testing.T) {
	check := func(what string, tree *core.Tree) {
		t.Helper()
		want := -1
		core.Walk(tree.Root, func(*core.Node) bool { want++; return true })
		if got := tree.NumNodes(); got != want {
			t.Errorf("%s: NumNodes %d, a walk counts %d scopes", what, got, want)
		}
	}
	check("empty", core.NewTree("p", nil))
	check("fig1", core.Fig1Tree())
	for seed := int64(1); seed <= 4; seed++ {
		check(fmt.Sprintf("synthetic seed %d", seed), syntheticCCT(int(seed)*700, seed))
	}
	merged := []*expdb.Experiment{equivExperiment(t, "pflotran", 1), equivExperiment(t, "pflotran", 7), equivExperiment(t, "moab", 4)}
	for i, e := range merged {
		check(fmt.Sprintf("merged %d", i), e.Tree)
		for _, f := range []struct {
			name  string
			write func(*expdb.Experiment, io.Writer) error
		}{
			{"v1", (*expdb.Experiment).WriteBinaryV1},
			{"v2", (*expdb.Experiment).WriteBinary},
			{"v3", (*expdb.Experiment).WriteBinaryV3},
			{"xml", (*expdb.Experiment).WriteXML},
		} {
			var buf bytes.Buffer
			if err := f.write(e, &buf); err != nil {
				t.Fatal(err)
			}
			got, err := expdb.Read(&buf)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			check(fmt.Sprintf("merged %d read from %s", i, f.name), got.Tree)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {0, 2}} {
		res, err := diff.Diff(diff.Config{},
			diff.Input{Label: "A", Exp: merged[pair[0]]}, diff.Input{Label: "B", Exp: merged[pair[1]]})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("union of %d and %d", pair[0], pair[1]), res.Tree)
	}
}
