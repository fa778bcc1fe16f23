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
// Throughput mode drives the live runtime's commit pipeline instead of the
// simulator: txn/s and latency percentiles per protocol and in-flight
// depth, against a serial Commit baseline (depth 1):
//
//	commitbench -throughput
//	commitbench -throughput -txns 512 -depths 1,16,64,256 -protocols inbac,2pc,paxoscommit
//
// -runtime selects the transport under test (mesh, or tcp for one peer
// process per participant over loopback sockets); -json additionally writes
// the machine-readable snapshot diffed by cmd/benchdiff:
//
//	commitbench -throughput -runtime tcp -json BENCH_throughput_tcp.json
//
// KV mode drives the sharded transactional key-value store (package kv):
// txn/s, latency percentiles, and — the numbers no preset-vote benchmark
// can produce — the abort rate each protocol induces under real key
// conflicts, swept across Zipf contention levels:
//
//	commitbench -kv
//	commitbench -kv -kv-thetas 0,0.9,0.99 -kv-keys 64 -kv-protocols inbac,2pc,paxoscommit,3pc
//
// -trace arms the flight recorder for any mode: if a run trips an anomaly
// (a cross-member agreement violation, a peer decision mismatch), the merged
// per-member timeline of the offending transaction is printed to stderr and
// dumped as anomaly-<tx>-<kind>.json/.txt. The load under which INBAC used
// to violate agreement (until PR 14; DESIGN.md "How a handler runs"):
//
//	commitbench -throughput -runtime mesh -txns 512 -timeout 5ms -protocols inbac -trace
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
	"atomiccommit/internal/obs"
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

		throughput = flag.Bool("throughput", false, "live pipeline throughput: txn/s and latency percentiles vs in-flight depth")
		txns       = flag.Int("txns", 256, "throughput mode: transactions per data point")
		depths     = flag.String("depths", "1,4,16,64", "throughput mode: comma-separated in-flight depths (1 = serial baseline)")
		protoList  = flag.String("protocols", "inbac,2pc", "throughput mode: comma-separated protocol names")
		runtimeSel = flag.String("runtime", "mesh", "throughput mode: transport under test (mesh | tcp)")
		jsonOut    = flag.String("json", "", "throughput mode: also write the machine-readable snapshot (BENCH_*.json) to this path")
		timeout    = flag.Duration("timeout", 5*time.Millisecond, "throughput/kv mode: protocol timeout unit U")
		trace      = flag.Bool("trace", false, "enable the flight recorder; on an anomaly (e.g. an agreement violation) print the merged per-member timeline to stderr and write dump files")
		traceDir   = flag.String("trace-dir", ".", "directory for anomaly dump files (anomaly-<tx>-<kind>.json/.txt); requires -trace")
		audit      = flag.Bool("audit", false, "attach the live NBAC property auditor to the run: every transaction is checked against its protocol's contract, violations fire anomalies, and the run exits 3 on any non-allowlisted violation")
		auditAllow = flag.String("audit-allow", "", "audit mode: comma-separated anomaly kinds that do not fail the run (e.g. audit-agreement for a known open protocol bug)")
		auditJSON  = flag.String("audit-json", "", "audit mode: also write the audit summary as JSON to this path")

		kvMode     = flag.Bool("kv", false, "kv mode: sharded transactional store — txn/s and induced abort rate vs Zipf contention per protocol")
		kvF        = flag.Int("kv-f", 1, "kv mode: resilience parameter (1 <= f <= shards-1)")
		kvProtos   = flag.String("kv-protocols", "inbac,2pc,paxoscommit", "kv mode: comma-separated protocol names")
		kvThetas   = flag.String("kv-thetas", "0,0.7,0.99", "kv mode: comma-separated Zipf skew levels in [0,1)")
		kvShards   = flag.Int("kv-shards", 4, "kv mode: shard (= participant) count")
		kvTxns     = flag.Int("kv-txns", 400, "kv mode: transactions per data point")
		kvWorkers  = flag.Int("kv-workers", 24, "kv mode: concurrent committers (= in-flight window)")
		kvKeys     = flag.Int("kv-keys", 1024, "kv mode: keyspace size (smaller = more contention)")
		kvOps      = flag.Int("kv-ops", 4, "kv mode: operations per transaction")
		kvReads    = flag.Float64("kv-readfrac", 0.5, "kv mode: fraction of operations that are reads")
		kvReadsGeo = flag.String("kv-readfracs", "", "kv geo mode: comma-separated read fractions to sweep (one row set per fraction); empty = just -kv-readfrac")
		geo        = flag.String("geo", "", "kv mode with -runtime tcp: geo latency profile (local | us-eu | us-eu-ap); one shard per peer process over shaped sockets, one client per region")
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
		aud = obs.NewAuditor(obs.AuditorConfig{Contracts: bench.AuditContracts()})
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
	if *throughput {
		var ds []int
		for _, s := range strings.Split(*depths, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || d < 1 {
				fmt.Fprintf(os.Stderr, "commitbench: bad depth %q\n", s)
				os.Exit(2)
			}
			ds = append(ds, d)
		}
		var ps []string
		for _, p := range strings.Split(*protoList, ",") {
			ps = append(ps, strings.TrimSpace(p))
		}
		rows, s, err := bench.Throughput(bench.ThroughputConfig{
			Protocols: ps, Runtime: *runtimeSel,
			Depths: ds, Txns: *txns, N: *n, F: *f, Timeout: *timeout,
			KeepGoing: *audit,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "commitbench: %v\n", err)
			os.Exit(1)
		}
		show(s)
		if *jsonOut != "" {
			var send *bench.SendStats
			if *runtimeSel == "tcp" {
				st, err := bench.MeasureSend()
				if err != nil {
					fmt.Fprintf(os.Stderr, "commitbench: send measurement: %v\n", err)
					os.Exit(1)
				}
				send = &st
			}
			snap := bench.NewSnapshot(*runtimeSel, rows, send)
			snap.Metrics = obs.M.Counters("")
			if aud != nil {
				s := aud.Summary()
				snap.Audit = &s
			}
			if err := bench.WriteSnapshot(*jsonOut, snap); err != nil {
				fmt.Fprintf(os.Stderr, "commitbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (%d rows)\n", *jsonOut, len(rows))
		}
	}
	if *kvMode {
		var thetas []float64
		for _, s := range strings.Split(*kvThetas, ",") {
			th, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || th < 0 || th >= 1 {
				fmt.Fprintf(os.Stderr, "commitbench: bad theta %q (need [0,1))\n", s)
				os.Exit(2)
			}
			thetas = append(thetas, th)
		}
		var ps []string
		for _, p := range strings.Split(*kvProtos, ",") {
			ps = append(ps, strings.TrimSpace(p))
		}
		readFrac := *kvReads
		if readFrac == 0 {
			readFrac = -1 // KVConfig uses 0 as "default"; negative means write-only
		}
		if *kvF < 1 || *kvF > *kvShards-1 {
			fmt.Fprintf(os.Stderr, "commitbench: need 1 <= kv-f <= kv-shards-1 (got shards=%d f=%d)\n", *kvShards, *kvF)
			os.Exit(2)
		}
		if *geo != "" || *runtimeSel == "tcp" {
			// Distributed kv: one shard per commit.Peer over TCP, one
			// client per region of the geo profile. The timeout unit must
			// cover the profile's worst one-way delay, so the profile's
			// suggestion applies unless -timeout was given explicitly.
			geoName := *geo
			if geoName == "" {
				geoName = "local"
			}
			geoTimeout := time.Duration(0)
			flag.Visit(func(fl *flag.Flag) {
				if fl.Name == "timeout" {
					geoTimeout = *timeout
				}
			})
			readFracs := []float64{readFrac}
			if *kvReadsGeo != "" {
				readFracs = readFracs[:0]
				for _, s := range strings.Split(*kvReadsGeo, ",") {
					rf, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
					if err != nil || rf < 0 || rf > 1 {
						fmt.Fprintf(os.Stderr, "commitbench: bad read fraction %q (need [0,1])\n", s)
						os.Exit(2)
					}
					if rf == 0 {
						rf = -1 // KVGeoConfig uses 0 as "default"
					}
					readFracs = append(readFracs, rf)
				}
			}
			var rows []bench.KVGeoRow
			for _, rf := range readFracs {
				prows, s, err := bench.KVGeo(bench.KVGeoConfig{
					Protocol: ps[0], Geo: geoName,
					Shards: *kvShards, F: *kvF, Txns: *kvTxns, Workers: *kvWorkers,
					Keys: *kvKeys, OpsPerTxn: *kvOps, Theta: thetas[0], ReadFrac: rf,
					Timeout: geoTimeout,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "commitbench: %v\n", err)
					os.Exit(1)
				}
				show(s)
				rows = append(rows, prows...)
			}
			if *jsonOut != "" {
				snap := bench.NewKVGeoSnapshot(rows)
				snap.Metrics = obs.M.Counters("")
				if aud != nil {
					s := aud.Summary()
					snap.Audit = &s
				}
				if err := bench.WriteSnapshot(*jsonOut, snap); err != nil {
					fmt.Fprintf(os.Stderr, "commitbench: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s (%d rows)\n", *jsonOut, len(rows))
			}
		} else {
			_, s, err := bench.KV(bench.KVConfig{
				Protocols: ps, Thetas: thetas,
				Shards: *kvShards, F: *kvF, Txns: *kvTxns, Workers: *kvWorkers,
				Keys: *kvKeys, OpsPerTxn: *kvOps, ReadFrac: readFrac,
				Timeout: *timeout,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "commitbench: %v\n", err)
				os.Exit(1)
			}
			show(s)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if aud != nil {
		if code := auditFinish(aud, *auditAllow, *auditJSON); code != 0 {
			os.Exit(code)
		}
	}
}

// auditFinish prints the auditor's verdict, optionally writes the summary
// as JSON, and returns 3 if any non-allowlisted violation fired.
func auditFinish(aud *obs.Auditor, allowList, jsonPath string) int {
	s := aud.Summary()
	fmt.Printf("\naudit: %d txns checked (%d observed, %d evicted incomplete), max one-way delay %v (max U %v), max vote→decision span %v (bound %d×U)\n",
		s.TxnsChecked, s.TxnsObserved, s.Incomplete,
		time.Duration(s.MaxOneWayDelayNs), time.Duration(s.MaxUNs),
		time.Duration(s.MaxSpanNs), s.TerminationFactor)

	allowed := make(map[string]bool)
	for _, k := range strings.Split(allowList, ",") {
		if k = strings.TrimSpace(k); k != "" {
			allowed[k] = true
		}
	}
	var bad int64
	if len(s.Violations) == 0 {
		fmt.Println("audit: no property violations")
	}
	for kind, count := range s.Violations {
		status := "FAIL"
		if allowed[kind] {
			status = "allowed"
		} else {
			bad += count
		}
		fmt.Printf("audit: %s ×%d (%s) e.g. %s\n", kind, count, status, strings.Join(s.ViolationTxns[kind], " "))
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
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "commitbench: %d non-allowlisted property violations\n", bad)
		return 3
	}
	return 0
}
