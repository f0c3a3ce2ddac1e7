// Scaling: reproduce the paper's Section VI-A analysis — "pinpoint and
// quantify scalability bottlenecks in context [by] scaling and
// differencing call path profiles from a pair of executions". Two
// PFLOTRAN runs at different widths are unioned with per-rank costs, and
// a derived formula under a weak-scaling expectation computes the excess
// work; that column drives hot-path analysis and sorting just like any
// measured metric.
//
// Run with: go run ./examples/scaling [-small 4] [-big 16]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/callpath"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")
	small := flag.Int("small", 4, "ranks in the small run")
	big := flag.Int("big", 16, "ranks in the big run")
	flag.Parse()

	runAt := func(ranks int) *callpath.Tree {
		res, err := callpath.Run(callpath.RunConfig{Workload: "pflotran", Ranks: ranks})
		if err != nil {
			log.Fatal(err)
		}
		return res.Experiment.Tree
	}
	smallTree := runAt(*small)
	bigTree := runAt(*big)

	res, err := callpath.AnalyzeScaling(smallTree, bigTree, callpath.ScalingConfig{
		Metric:     "CYCLES",
		Mode:       callpath.WeakScaling,
		RanksSmall: *small,
		RanksBig:   *big,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("weak scaling %d -> %d ranks: %.1f%% of the big run's per-rank cycles are scaling loss\n\n",
		*small, *big, 100*res.LossFraction())

	fmt.Println("=== Hot path over scaling loss ===")
	union := res.Tree
	for _, n := range callpath.HotPath(union.Root, res.Column, callpath.DefaultHotPathThreshold) {
		if n.Kind == callpath.KindRoot {
			continue
		}
		fmt.Printf("  %-44s excess %12.4g cycles/rank\n", n.Label(), n.Incl.Get(res.Column))
	}

	var cols []callpath.RenderColumn
	for _, name := range []string{"scaling loss", "CYCLES[big]", "CYCLES[small]"} {
		id, err := callpath.MetricColumn(union, name)
		if err != nil {
			log.Fatal(err)
		}
		cols = append(cols, callpath.RenderColumn{MetricID: id, Inclusive: true})
	}
	fmt.Println("\n=== Calling Context View of the union, sorted by scaling loss ===")
	err = callpath.RenderTree(os.Stdout, union, callpath.RenderOptions{
		Columns:  cols,
		Sort:     callpath.SortSpec{MetricID: res.Column},
		MaxDepth: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe loss splits between two classic weak-scaling bottlenecks: the")
	fmt.Println("barrier wait (the uneven partition's max-mean gap widens with more")
	fmt.Println("ranks, so everyone else idles longer) and the global residual")
	fmt.Println("reduction, whose cost grows linearly with the rank count.")
}
