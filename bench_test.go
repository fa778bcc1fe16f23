// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs real protocol executions on the deterministic
// simulator and reports the paper's two complexity metrics as custom
// benchmark metrics: msgs/commit (messages to decision) and delays/commit
// (message delay units). The numbers must equal the paper's closed forms —
// see DESIGN.md, "Measurement conventions". The pipeline benchmarks
// additionally measure live throughput (txn/s) of concurrent commit
// instances at several in-flight depths.
package atomiccommit

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/bench"
	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/protocols"
	"atomiccommit/internal/sim"
)

// benchNF is the reference configuration used by the per-table benchmarks
// (any (n, f) works; the assertions are formula-based).
const (
	benchN = 8
	benchF = 3
)

// BenchmarkTable1Grid regenerates the 27-cell complexity grid (Table 1).
func BenchmarkTable1Grid(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows, _ = bench.Table1(benchN, benchF)
	}
	b.StopTimer()
	mismatches := 0
	for _, r := range rows {
		if !r.DelaysMatch() || !r.MessagesMatch() {
			mismatches++
		}
	}
	b.ReportMetric(float64(len(rows)), "cells")
	b.ReportMetric(float64(mismatches), "mismatches")
}

// BenchmarkTable2DelayOptimal regenerates Table 2 (delay-optimal
// protocols), one sub-benchmark per protocol.
func BenchmarkTable2DelayOptimal(b *testing.B) {
	for _, name := range []string{"avnbac-delay", "0nbac", "1nbac", "inbac"} {
		b.Run(name, func(b *testing.B) {
			benchNice(b, name, benchN, benchF)
		})
	}
}

// BenchmarkTable3MessageOptimal regenerates Table 3 (message-optimal
// protocols).
func BenchmarkTable3MessageOptimal(b *testing.B) {
	for _, name := range []string{"0nbac", "anbac", "chainnbac", "avnbac-msg", "hubnbac", "fullnbac"} {
		b.Run(name, func(b *testing.B) {
			benchNice(b, name, benchN, benchF)
		})
	}
}

// BenchmarkTable4Bounds regenerates Table 4 (indulgent atomic commit vs
// synchronous NBAC, both bounds).
func BenchmarkTable4Bounds(b *testing.B) {
	for _, name := range []string{"inbac", "fullnbac", "1nbac", "chainnbac"} {
		b.Run(name, func(b *testing.B) {
			benchNice(b, name, benchN, benchF)
		})
	}
}

// BenchmarkTable5Comparison regenerates Table 5 (the protocol comparison
// with spontaneous starts), including the f=1 special case the paper
// highlights (INBAC 2n vs 2PC 2n-2).
func BenchmarkTable5Comparison(b *testing.B) {
	for _, f := range []int{1, benchF} {
		for _, name := range []string{"1nbac", "chainnbac", "inbac", "2pc", "3pc", "paxoscommit", "fasterpaxoscommit"} {
			b.Run(fmt.Sprintf("%s/f=%d", name, f), func(b *testing.B) {
				benchNice(b, name, benchN, f)
			})
		}
	}
}

// BenchmarkFigure1Paths regenerates the Figure 1 state-machine census.
func BenchmarkFigure1Paths(b *testing.B) {
	var results []bench.Figure1Result
	for i := 0; i < b.N; i++ {
		results, _ = bench.Figure1()
	}
	b.StopTimer()
	missing := 0
	for _, r := range results {
		missing += len(r.Missing)
	}
	b.ReportMetric(float64(len(results)), "scenarios")
	b.ReportMetric(float64(missing), "missing_branches")
}

// BenchmarkCrossover sweeps the section 6.2 tradeoff between INBAC,
// PaxosCommit, Faster PaxosCommit and 2PC.
func BenchmarkCrossover(b *testing.B) {
	var rows []bench.CrossoverRow
	for i := 0; i < b.N; i++ {
		rows, _ = bench.Crossover([]int{3, 5, 8, 12, 16}, []int{1, 2, 4})
	}
	b.StopTimer()
	wins := 0
	for _, r := range rows {
		if r.PaxosWinsMessages {
			wins++
		}
	}
	b.ReportMetric(float64(wins), "paxos_msg_wins")
	b.ReportMetric(float64(len(rows)), "points")
}

// BenchmarkAckBundlingAblation measures INBAC with Lemma 6's bundled
// acknowledgements disabled.
func BenchmarkAckBundlingAblation(b *testing.B) {
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows, _ = bench.Ablation([][2]int{{benchN, benchF}})
	}
	b.StopTimer()
	b.ReportMetric(float64(rows[0].Bundled), "msgs_bundled")
	b.ReportMetric(float64(rows[0].Unbundled), "msgs_unbundled")
}

// BenchmarkAcceleratedAbort measures the section 5.2 fast abort.
func BenchmarkAcceleratedAbort(b *testing.B) {
	var rows []bench.AbortLatencyRow
	for i := 0; i < b.N; i++ {
		rows, _ = bench.AbortLatency([][2]int{{benchN, benchF}})
	}
	b.StopTimer()
	b.ReportMetric(float64(rows[0].BaseDelays), "delays_base")
	b.ReportMetric(float64(rows[0].AcceleratedDelays), "delays_accel")
}

// benchNice runs nice executions of one protocol and reports the paper
// metrics.
func benchNice(b *testing.B, name string, n, f int) {
	info, ok := protocols.ByName(name)
	if !ok {
		b.Fatalf("unknown protocol %s", name)
	}
	if n < info.MinN {
		b.Skipf("%s needs n >= %d", name, info.MinN)
	}
	var m bench.Measurement
	for i := 0; i < b.N; i++ {
		m = bench.MeasureNice(name, n, f)
	}
	b.ReportMetric(float64(m.Messages), "msgs/commit")
	b.ReportMetric(float64(m.Delays), "delays/commit")
	if !m.Match {
		b.Fatalf("%s (n=%d f=%d) deviated from its formula: %+v", name, n, f, m)
	}
}

// BenchmarkSimulatorThroughput measures raw kernel event throughput with
// the heaviest nice execution in the suite (all-to-all 1NBAC).
func BenchmarkSimulatorThroughput(b *testing.B) {
	info, _ := protocols.ByName("1nbac")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := sim.Run(sim.Config{N: 16, F: 5, New: info.New()})
		if !r.SolvesNBAC() {
			b.Fatal("nice execution failed")
		}
	}
}

// BenchmarkPipelineThroughput measures pipelined commit throughput (txn/s)
// at several in-flight depths against the serial baseline (depth 1): depth
// goroutines each commit one transaction at a time, a closed loop that keeps
// exactly depth in flight — a client sends whatever it is given at once, so
// the loop is what bounds it. With a timer-dominated per-transaction
// latency, throughput scales nearly linearly with depth — the
// latency/throughput tradeoff of Didona et al.
func BenchmarkPipelineThroughput(b *testing.B) {
	for _, name := range []string{"inbac", "2pc"} {
		for _, depth := range []int{1, 16, 64} {
			b.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(b *testing.B) {
				rs := make([]commit.Resource, 4)
				for i := range rs {
					rs[i] = commit.ResourceFunc{}
				}
				cl, err := commit.NewCluster(rs, commit.Options{
					Protocol: commit.Protocol(name), F: 1, Timeout: 5 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				ctx := context.Background()
				b.ResetTimer()
				start := time.Now()
				// A timing-bound violation under load makes an indulgent
				// protocol abort rather than misbehave: count those, fail
				// only on infrastructure errors.
				var next, aborted atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < depth; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
							ok, err := cl.Commit(ctx, fmt.Sprintf("pipe-%s-%d-%d", name, depth, i))
							if err != nil {
								b.Errorf("txn %d: %v", i, err)
								return
							}
							if !ok {
								aborted.Add(1)
							}
						}
					}()
				}
				wg.Wait()
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "txn/s")
				b.ReportMetric(float64(aborted.Load()), "aborts")
			})
		}
	}
}

// BenchmarkCommitMany measures batch submission end to end: CommitMany
// sends all 128 transactions of a batch at once and waits for them.
func BenchmarkCommitMany(b *testing.B) {
	rs := make([]commit.Resource, 4)
	for i := range rs {
		rs[i] = commit.ResourceFunc{}
	}
	cl, err := commit.NewCluster(rs, commit.Options{
		Protocol: commit.INBAC, F: 1, Timeout: 5 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	batch := make([]string, 128)
	aborted := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = fmt.Sprintf("many-%d-%d", i, j)
		}
		oks, err := cl.CommitMany(ctx, batch)
		if err != nil {
			b.Fatal(err)
		}
		// Spurious aborts under load are the indulgent protocols' legal
		// response to a violated timing bound; report, don't fail.
		for _, ok := range oks {
			if !ok {
				aborted++
			}
		}
	}
	b.ReportMetric(float64(len(batch)), "txns/batch")
	b.ReportMetric(float64(aborted), "aborts")
}

// BenchmarkConsensus measures the consensus substrate deciding under a
// leader crash (worst common case: one rotation).
func BenchmarkConsensus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := sim.Run(sim.Config{N: 5, F: 2,
			New: func(core.ProcessID) core.Module { return consensus.New() },
			Policy: sim.Policy{Crash: func(p core.ProcessID) core.Ticks {
				if p == 1 {
					return 0
				}
				return core.NoCrash
			}}})
		if !r.AllCorrectDecided() {
			b.Fatal("consensus failed to decide")
		}
	}
}

// BenchmarkLiveClusterCommit measures wall-clock commit latency of the live
// runtime (INBAC vs 2PC): latency is dominated by delays x Timeout, which
// is the paper's point rendered in real time.
func BenchmarkLiveClusterCommit(b *testing.B) {
	for _, name := range []string{"inbac", "2pc", "paxoscommit"} {
		b.Run(name, func(b *testing.B) {
			rs := make([]commit.Resource, 4)
			for i := range rs {
				rs[i] = commit.ResourceFunc{}
			}
			cl, err := commit.NewCluster(rs, commit.Options{
				Protocol: commit.Protocol(name), F: 1, Timeout: 5 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := cl.Commit(ctx, fmt.Sprintf("bench-%s-%d", name, i))
				if err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
