package imbalance

import (
	"cmp"
	"slices"

	"repro/internal/core"
)

// ScopeStat is the load-imbalance summary of one scope recovered from a
// merged database's cross-rank summary columns.
type ScopeStat struct {
	// Path is the scope's label path from the entry frame.
	Path []string `json:"path"`
	// Mean and Max are the scope's inclusive per-rank mean and maximum.
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
	// Factor is max/mean − 1, the paper's imbalance factor: 0 for a
	// perfectly balanced scope, 1 when the slowest rank costs twice the
	// average.
	Factor float64 `json:"factor"`
	// Waste is ranks · (max − mean): the total cost the program would
	// shed if every rank ran at the mean — the paper's derived waste
	// metric, Section VI-B.
	Waste float64 `json:"waste"`
}

// FromSummaries recovers the Section VI-C load-imbalance analysis from a
// database whose per-rank profiles are gone but whose mean/max summary
// columns survive (hpcprof -summaries): every procedure frame with
// positive mean cost is scored by imbalance factor and absolute waste.
// meanID and maxID are the summary columns over one raw metric; ranks is
// the database's merged rank count. Frames are returned in descending
// waste order (ties broken by path), so the head of the slice is where
// rebalancing pays most.
func FromSummaries(tree *core.Tree, ranks int, meanID, maxID int) []ScopeStat {
	var out []ScopeStat
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		if n.Kind == core.KindFrame {
			mean, max := n.Incl.Get(meanID), n.Incl.Get(maxID)
			if mean > 0 && max >= mean {
				var path []string
				for _, a := range n.Path() {
					if a.Kind == core.KindFrame {
						path = append(path, a.Label())
					}
				}
				out = append(out, ScopeStat{
					Path:   path,
					Mean:   mean,
					Max:    max,
					Factor: max/mean - 1,
					Waste:  float64(ranks) * (max - mean),
				})
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	slices.SortStableFunc(out, func(a, b ScopeStat) int {
		if c := cmp.Compare(b.Waste, a.Waste); c != 0 {
			return c
		}
		// Label by label: the order of the paths joined with NUL
		// separators, unless a label holds a NUL byte.
		return slices.Compare(a.Path, b.Path)
	})
	return out
}
