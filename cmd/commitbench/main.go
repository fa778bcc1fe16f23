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
// Live mode (-throughput) drives the live runtime instead of the simulator:
// every (protocol, depth) cell boots a fresh fleet and runs -txns
// transactions through it, -depths at a time, reporting committed and
// decided txn/s, p50/p99 and the aborts split into vote, timing and infra.
// -runtime picks the fleet (see bench.Config): mesh, tcp, or kv, where
// -kv-thetas adds one cell per skew; -geo shapes the links. Its purpose is
// to run any registered protocol under load with the checkers on; for
// performance numbers see benchmark/README.md.
//
//	commitbench -throughput -runtime tcp -n 4 -f 1 -txns 512 -depths 1,16,64 -protocols inbac,2pc,paxoscommit
//	commitbench -throughput -runtime kv -n 4 -f 1 -depths 8 -geo us-eu-ap -kv-thetas 0.7 -kv-keys 256
//
// -audit attaches the live NBAC auditor and exits 3 on a property violation.
// -trace arms the flight recorder: an anomaly (an audit violation, such as
// members that disagree) prints the merged per-member timeline of the
// offending transaction to stderr and dumps it as anomaly-<tx>-<kind>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"atomiccommit/internal/bench"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols"
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

		throughput = flag.Bool("throughput", false, "live mode: committed/decided txn/s, latency percentiles and the abort split per protocol and in-flight depth")
		txns       = flag.Int("txns", 256, "live mode: measured transactions per cell")
		depths     = flag.String("depths", "1,4,16,64", "live mode: comma-separated in-flight depths")
		protoList  = flag.String("protocols", "inbac,2pc", "live mode: comma-separated protocol names")
		runtimeSel = flag.String("runtime", "mesh", "live mode: the fleet under load (mesh | tcp | kv)")
		timeout    = flag.Duration("timeout", 0, "live mode: protocol timeout unit U (default 5ms, or what the -geo profile suggests)")
		trace      = flag.Bool("trace", false, "enable the flight recorder; on an anomaly (e.g. an agreement violation) print the merged per-member timeline to stderr and write a dump file")
		traceDir   = flag.String("trace-dir", ".", "directory for anomaly dump files (anomaly-<tx>-<kind>.json); requires -trace")
		audit      = flag.Bool("audit", false, "attach the live NBAC property auditor to the run: every transaction is checked against its protocol's contract, violations fire anomalies, and the run exits 3 on any violation")
		auditJSON  = flag.String("audit-json", "", "audit mode: also write the audit summary as JSON to this path")

		kvThetas = flag.String("kv-thetas", "0,0.7,0.99", "-runtime kv: comma-separated Zipf skew levels in [0,1), one cell each")
		kvKeys   = flag.Int("kv-keys", 1024, "-runtime kv: keyspace size (smaller = more contention)")
		kvReads  = flag.Float64("kv-readfrac", 0.5, "-runtime kv: fraction of operations that are reads")
		geo      = flag.String("geo", "", "live mode: geo latency profile (local | us-eu | us-eu-ap) shaping the links; the client sits in the profile's first region")
	)
	flag.Parse()

	if *trace {
		obs.Default.Enable()
		obs.SetDumpDir(*traceDir)
		obs.SetAnomalyHook(func(d obs.Dump) {
			fmt.Fprintf(os.Stderr, "\n=== anomaly: %s on %s ===\n%s\n%s\n",
				d.Anomaly.Kind, d.Anomaly.TxID, d.Anomaly.Detail, d.Interleaving())
		})
	}
	var aud *obs.Auditor
	if *audit {
		// Each protocol against the Table 1 property cell the simulator
		// checks it against.
		contracts := make(map[string]nbac.Contract)
		for _, info := range protocols.All() {
			contracts[info.Name] = info.Contract
		}
		aud = obs.NewAuditor(obs.AuditorConfig{Contracts: contracts})
		obs.SetAuditor(aud)
	}

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
	var liveErr error
	if *throughput {
		ds := list(*depths, "depth", strconv.Atoi)
		thetas := list(*kvThetas, "theta", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		ps := list(*protoList, "protocol", func(s string) (string, error) { return s, nil })
		rows, s, err := bench.Run(bench.Config{
			Runtime: *runtimeSel, Protocols: ps, Depths: ds, Txns: *txns, N: *n, F: *f, Timeout: *timeout,
			Geo: *geo, Thetas: thetas, Keys: *kvKeys, ReadFrac: *kvReads,
		})
		if rows == nil {
			fmt.Fprintf(os.Stderr, "commitbench: %v\n", err)
			os.Exit(1)
		}
		show(s)
		liveErr = err
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if aud != nil {
		if code := auditFinish(aud, *auditJSON); code != 0 {
			os.Exit(code)
		}
	}
	if liveErr != nil {
		// The table above counts these under infra; a run with any is not a
		// clean run.
		fmt.Fprintf(os.Stderr, "commitbench: %v\n", liveErr)
		os.Exit(1)
	}
}

// list parses a comma-separated flag value, exiting 2 on a bad element.
func list[T any](value, what string, parse func(string) (T, error)) []T {
	var out []T
	for _, s := range strings.Split(value, ",") {
		v, err := parse(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "commitbench: bad %s %q\n", what, s)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// auditFinish prints the auditor's verdict, optionally writes the summary
// as JSON, and returns 3 if any property violation fired.
func auditFinish(aud *obs.Auditor, jsonPath string) int {
	s := aud.Summary()
	fmt.Printf("\naudit: %d txns checked (%d observed, %d evicted incomplete), max one-way delay %v (max U %v), max vote→decision span %v (bound %d×U)\n",
		s.TxnsChecked, s.TxnsObserved, s.Incomplete,
		time.Duration(s.MaxOneWayDelayNs), time.Duration(s.MaxUNs),
		time.Duration(s.MaxSpanNs), s.TerminationFactor)

	if len(s.Violations) == 0 {
		fmt.Println("audit: no property violations")
	}
	for kind, count := range s.Violations {
		fmt.Printf("audit: %s ×%d (FAIL) e.g. %s\n", kind, count, strings.Join(s.ViolationTxns[kind], " "))
	}
	if jsonPath != "" {
		b, err := json.MarshalIndent(s, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "commitbench: write audit summary: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if len(s.Violations) > 0 {
		return 3
	}
	return 0
}
