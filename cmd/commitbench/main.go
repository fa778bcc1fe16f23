// Command commitbench regenerates the paper's evaluation: every table
// (1-5), Figure 1, and the supplementary experiments (crossover, ablation,
// accelerated abort, the 2PC blocking demo).
//
// Usage:
//
//	commitbench -all                 # everything, default n=8 f=3
//	commitbench -table 5 -n 10 -f 2  # one table at a chosen size
//	commitbench -figure 1
//	commitbench -extra crossover
//	commitbench -sweep               # Table 5 message counts across (n, f)
//
// Every number comes from the deterministic simulator. The live runtime is
// put under audited load by TestAuditedLoad (audit_test.go in the module
// root); its performance is measured by the repo benchmark, see
// benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"atomiccommit/internal/bench"
)

func main() {
	var (
		n      = flag.Int("n", 8, "number of processes")
		f      = flag.Int("f", 3, "resilience parameter (1 <= f <= n-1)")
		table  = flag.Int("table", 0, "regenerate one table (1-5)")
		figure = flag.Int("figure", 0, "regenerate one figure (1)")
		extra  = flag.String("extra", "", "supplementary experiment: crossover | ablation | abort | blocking")
		sweep  = flag.Bool("sweep", false, "Table 5 message sweep across (n, f)")
		all    = flag.Bool("all", false, "regenerate everything")
	)
	flag.Parse()

	if *f < 1 || *f > *n-1 {
		fmt.Fprintf(os.Stderr, "commitbench: need 1 <= f <= n-1 (got n=%d f=%d)\n", *n, *f)
		os.Exit(2)
	}
	ran := false
	show := func(s string) { fmt.Println(s); ran = true }

	if *all || *table == 1 {
		_, s := bench.Table1(*n, *f)
		show(s)
	}
	if *all || *table == 2 {
		_, s := bench.Table2(*n, *f)
		show(s)
	}
	if *all || *table == 3 {
		_, s := bench.Table3(*n, *f)
		show(s)
	}
	if *all || *table == 4 {
		_, s := bench.Table4(*n, *f)
		show(s)
	}
	if *all || *table == 5 {
		_, s := bench.Table5(*n, *f)
		show(s)
	}
	if *all || *figure == 1 {
		_, s := bench.Figure1()
		show(s)
	}
	if *all || *sweep {
		show(bench.SweepTable5([]int{3, 4, 5, 8, 12, 16, 24}, []int{1, 2, 3, 5, 8}))
	}
	if *all || *extra == "crossover" {
		_, s := bench.Crossover([]int{3, 5, 8, 12, 16, 24}, []int{1, 2, 3, 5})
		show(s)
	}
	if *all || *extra == "ablation" {
		_, s := bench.Ablation([][2]int{{4, 1}, {5, 2}, {8, 3}, {12, 5}, {16, 7}})
		show(s)
	}
	if *all || *extra == "abort" {
		_, s := bench.AbortLatency([][2]int{{4, 1}, {6, 2}, {8, 3}, {12, 5}})
		show(s)
	}
	if *all || *extra == "blocking" {
		show(bench.BlockingDemo(*n, *f))
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
