// Command benchmark is the repository's benchmark: five steady-state
// commit/kv workloads driven through the public surfaces (commit.Client +
// commit.Peer over loopback TCP, commit.Cluster over the mesh,
// kv.OpenRemote against kv shards), seven end-to-end metrics measured with
// all tracing off, and a per-layer budget recorded from outside the program
// in a separate traced run. See README.md and ../BENCHMARK.json.
//
//	go run ./benchmark                          every workload, both passes
//	go run ./benchmark -workload kv-tcp-write   one workload, end to end
//	go run ./benchmark -workload kv-tcp-write -trace 1
//	go run ./benchmark -selfcheck               noise check against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process; empty runs all of them, one child process each")
		seed      = flag.Int64("seed", 1, "workload seed: key choices, transaction mix and transaction IDs derive only from it")
		seconds   = flag.Int("seconds", 15, "length of the measured window")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end metric moves by more than its bound")
	)
	if os.Getenv(spinEnv) != "" {
		spin() // a keep-awake child of a run, see keepAwake
	}
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-selfcheck]")
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seed, *seconds)
	case *name == "":
		err = runAll(*seed, *seconds)
	default:
		err = runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(name string, seed int64, window time.Duration, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	run, defs := runEndToEnd, endToEnd
	if traced {
		run, defs = runTraced, perLayer
	}
	res, detail, err := run(w, seed, window)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := res.print(name, defs); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: output check failed: %s", name, detail)
	}
	return nil
}

// zipfFor builds the workload's shared key-rank distribution, if skewed.
func zipfFor(w workload) *zipf {
	if w.Gen.Theta == 0 {
		return nil
	}
	return newZipf(w.Gen.Keys, w.Gen.Theta)
}

// runEndToEnd is the measured run: flight recorder, auditor and the
// benchmark's own spans all off; only the output checker's ledger rides
// along.
func runEndToEnd(w workload, seed int64, window time.Duration) (*result, string, error) {
	z := zipfFor(w)
	stopSpinners, err := keepAwake()
	if err != nil {
		return nil, "", err
	}
	defer stopSpinners()
	yard, err := newYardstick()
	if err != nil {
		return nil, "", err
	}
	defer yard.close()
	var (
		f     *fleet
		boots []float64
	)
	for i := 0; i < bootRepeats; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = boot(w); err != nil {
			return nil, "", fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	defer f.close()

	// The window is measured as consecutive one-second slices. Rates are
	// reported as the median slice and percentiles as the median over
	// sub-windows (windowPercentile), so a stall of the sandbox (a noisy
	// neighbour, a long GC) costs one slice instead of shifting the result.
	slices := int(window / time.Second)
	t0 := time.Now()
	s := startSession(w, seed, f, z, slices, false)
	time.Sleep(warmupE2E)
	warm := time.Since(t0).Seconds()
	stopYard := yard.start()
	for i := 0; i < slices; i++ {
		s.measure(time.Second, nil, nil)
	}
	yardSamples := stopYard()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, "", err
	}
	_, touched := s.finish()
	v := s.check(touched)

	var (
		all                  winAcc
		goodput, cpus, yards []float64
		groups               [][]float64 // latencies per sub-window of groupSlices slices
	)
	for i, ws := range s.windows {
		all.merge(&ws.acc)
		goodput = append(goodput, ws.goodput())
		cpu, round, err := scaledCPUPerCommit(ws, yardSamples)
		if err != nil {
			return nil, "", fmt.Errorf("cpu_us_per_commit: %w", err)
		}
		cpus, yards = append(cpus, cpu), append(yards, round)
		if i%groupSlices == 0 {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], ws.acc.latMs...)
	}
	if all.commits == 0 {
		return nil, "", fmt.Errorf("no transaction committed in the window (%d attempts, %d errors)", all.attempts, all.errs)
	}
	p50, err := windowPercentile(groups, 0.50)
	if err != nil {
		return nil, "", fmt.Errorf("txn_p50_ms: %w (lengthen -seconds)", err)
	}
	p99, err := windowPercentile(groups, 0.99)
	if err != nil {
		return nil, "", fmt.Errorf("txn_p99_ms: %w (lengthen -seconds)", err)
	}
	// A commit the client cannot rely on — a peer decided abort, or the
	// probe still read the pre-image — counts against commit_frac with the
	// aborts and the errors.
	first, last := s.windows[0], s.windows[slices-1]
	peerViolations := int(last.closed.ledViolations - first.open.ledViolations)
	clean := all.commits - all.probeFails - peerViolations
	res := &result{Correct: v.correct, Attempted: all.commits + all.abandoned, Failed: all.abandoned}
	err = res.fill(endToEnd, map[string]float64{
		"setup_s":           median(boots) + warm,
		"goodput_txn_s":     median(goodput),
		"txn_p50_ms":        p50,
		"txn_p99_ms":        p99,
		"commit_frac":       ratio(float64(clean), float64(all.attempts)),
		"cpu_us_per_commit": median(cpus),
		"peak_rss_mb":       rss,
	})
	fmt.Printf("%s samples: %d commits of %d attempts in %d slices of 1s; %d errors, %d probe failures, %d agreement violations, %d abandoned, %d unsettled; boots %.3fs; yardstick round %.1f us, cpu_us_per_commit is scaled to one of %d us\n",
		w.Name, all.commits, all.attempts, slices, all.errs, all.probeFails, peerViolations+all.violations, all.abandoned, v.unsettled, boots,
		median(yards), yardstickNominal.Microseconds())
	return res, v.detail, err
}

// groupSlices is how many one-second slices form one sub-window of the
// latency percentiles.
const groupSlices = 2

// windowPercentile is the median of the sub-windows' p-quantiles when every
// sub-window has enough samples for one (minBeyond beyond it), and the
// p-quantile of the whole window otherwise — kv-geo-read commits too few
// transactions per second for a p99 every two seconds.
func windowPercentile(groups [][]float64, p float64) (float64, error) {
	var each, all []float64
	for _, g := range groups {
		sort.Float64s(g)
		all = append(all, g...)
		if v, err := percentile(g, p); err == nil {
			each = append(each, v)
		}
	}
	if len(each) == len(groups) {
		return median(each), nil
	}
	sort.Float64s(all)
	return percentile(all, p)
}

// Shares of -seconds the traced run gives its four windows: tracing off
// (the base for every overhead and the window the counters are diffed
// over), the benchmark's spans on, flight recorder on, auditor on.
const (
	shareBase     = 0.30
	shareTraced   = 0.40
	shareRecorder = 0.15
	shareAuditor  = 0.15
)

// runTraced is the per-layer run: micro-runs first, then one fleet measured
// over four consecutive windows.
func runTraced(w workload, seed int64, window time.Duration) (*result, string, error) {
	z := zipfFor(w)
	val := make(map[string]float64, len(perLayer))
	if err := microRuns(w, z, val); err != nil {
		return nil, "", err
	}
	runtime.GC()

	stopSpinners, err := keepAwake()
	if err != nil {
		return nil, "", err
	}
	defer stopSpinners()
	dials0 := obs.M.CounterValue("live.tcp.dials")
	f, err := boot(w)
	if err != nil {
		return nil, "", fmt.Errorf("boot: %w", err)
	}
	defer f.close()
	s := startSession(w, seed, f, z, 4, true)
	time.Sleep(warmupTraced)
	val["live.tcp.dials_setup"] = float64(obs.M.CounterValue("live.tcp.dials") - dials0)

	share := func(x float64) time.Duration { return time.Duration(x * float64(window)) }
	sampler := startGoroutineSampler()
	s.measure(share(shareBase), nil, nil)
	val["runtime.goroutines_peak"] = float64(sampler.Peak())
	s.measure(share(shareTraced), func() { f.tr.enabled.Store(true) }, func() { f.tr.enabled.Store(false) })
	s.measure(share(shareRecorder), obs.Default.Enable, func() {
		obs.Default.Disable()
		obs.Default.Reset()
	})
	contracts := make(map[string]nbac.Contract)
	for _, info := range protocols.All() {
		contracts[info.Name] = info.Contract
	}
	s.measure(share(shareAuditor),
		func() { obs.SetAuditor(obs.NewAuditor(obs.AuditorConfig{Contracts: contracts})) },
		func() { obs.SetAuditor(nil) })

	attempts, touched := s.finish()
	v := s.check(touched)
	hasKV := w.Runtime == runtimeKV
	smp := f.tr.analyze(attempts, nPeers, hasKV)
	path, err := f.tr.write(filepath.Join("benchmark", "out"), w.Name, seed, f.u, attempts, hasKV)
	if err != nil {
		return nil, "", fmt.Errorf("write trace: %w", err)
	}

	base, traced, rec, aud := s.windows[0], s.windows[1], s.windows[2], s.windows[3]
	if base.acc.commits == 0 || traced.acc.commits == 0 {
		return nil, "", fmt.Errorf("no transaction committed in the base or traced window")
	}
	commits, tried := float64(base.acc.commits), float64(base.acc.attempts)
	us := func(xs []float64, p float64) float64 { return percentileOrZero(xs, p) / 1e3 }
	ms := func(xs []float64, p float64) float64 { return percentileOrZero(xs, p) / 1e6 }

	val["live.tcp.envelopes_per_commit"] = base.delta("live.send.envelopes") / commits
	val["live.tcp.bytes_per_commit"] = base.delta("live.send.bytes") / commits
	val["live.tcp.frames_per_commit"] = base.delta("live.tcp.flush.frames") / commits
	// Dials and evictions are counted from the first window's opening to
	// the last one's close: none belongs in steady state.
	whole := windowStats{open: base.open, closed: aud.closed}
	val["live.tcp.dials_window"] = whole.delta("live.tcp.dials")
	val["live.tcp.evictions"] = whole.delta("live.tcp.evictions")
	val["live.mesh.envelopes_per_commit"] = base.delta("live.mesh.envelopes") / commits
	val["live.mesh.bytes_per_commit"] = base.delta("live.mesh.bytes") / commits

	val["protocols.envelopes_over_bound"] = (val["live.tcp.envelopes_per_commit"] + val["live.mesh.envelopes_per_commit"]) /
		val["protocols.inbac.nice_messages"]
	val["protocols.span_over_u_p50"] = percentileOrZero(smp.protoSpan, 0.5) / float64(f.u)
	consensus := base.delta("decide_path.inbac.consensus")
	decisions := consensus + base.delta("decide_path.inbac.fast") + base.delta("decide_path.inbac.help-fast")
	val["protocols.fast_path_frac"] = 1 - ratio(consensus, decisions)
	val["protocols.timing_abort_frac"] = float64(base.closed.ledTiming-base.open.ledTiming) / tried
	val["protocols.agreement_violations"] = float64(v.violations(s.windows))

	val["commit.begin_leg_p50_us"] = us(smp.beginLeg, 0.5)
	val["commit.vote_skew_p50_us"] = us(smp.voteSkew, 0.5)
	val["commit.vote_skew_p99_us"] = us(smp.voteSkew, 0.99)
	val["commit.protocol_span_p50_ms"] = ms(smp.protoSpan, 0.5)
	val["commit.protocol_span_p99_ms"] = ms(smp.protoSpan, 0.99)
	val["commit.apply_p50_us"] = us(smp.apply, 0.5)
	val["commit.result_leg_p50_us"] = us(smp.resultLeg, 0.5)
	val["commit.visibility_lag_p99_us"] = us(smp.visLag, 0.99)
	val["commit.self_p50_us"] = us(smp.waitSelf, 0.5)

	// The decorator wraps every resource, but only on kv workloads is that
	// resource a shard and the wait a Pending.Wait: elsewhere kv.* reads 0.
	kvs := smp
	if !hasKV {
		kvs = traceSamples{}
	}
	val["kv.shard.stage_p50_us"] = us(kvs.stage, 0.5)
	val["kv.shard.prepare_p50_us"] = us(kvs.prepare, 0.5)
	val["kv.shard.prepare_p99_us"] = us(kvs.prepare, 0.99)
	val["kv.shard.commit_p50_us"] = us(kvs.apply, 0.5)
	val["kv.shard.query_p50_us"] = us(kvs.query, 0.5)
	val["kv.shard.prepare_no_frac"] = ratio(float64(base.closed.ledNo-base.open.ledNo), float64(base.closed.ledVotes-base.open.ledVotes))
	val["kv.shard.intent_conflicts_per_txn"] = base.delta("kv.conflict.intent") / tried
	val["kv.shard.stale_reads_per_txn"] = base.delta("kv.conflict.stale_read") / tried

	val["kv.read_p50_ms"] = ms(kvs.read, 0.5)
	val["kv.submit_p50_ms"] = ms(kvs.submit, 0.5)
	val["kv.wait_p50_ms"] = ms(kvs.wait, 0.5)
	val["kv.remote.legs_per_txn"] = base.delta("kv.remote.legs") / tried
	val["kv.remote.read_batches_per_txn"] = base.delta("kv.remote.read.batches") / tried
	val["kv.remote.read_retries"] = base.delta("kv.remote.read.retries")
	hits := base.delta("kv.cache.hit")
	val["kv.cache.hit_frac"] = ratio(hits, hits+base.delta("kv.cache.miss"))
	val["kv.cache.stale_abort_frac"] = base.delta("kv.cache.stale_abort") / tried

	val["obs.recorder_cpu_overhead_frac"] = ratio(rec.cpuUsPerCommit(), base.cpuUsPerCommit()) - 1
	val["obs.auditor_cpu_overhead_frac"] = ratio(aud.cpuUsPerCommit(), base.cpuUsPerCommit()) - 1
	val["trace.overhead_frac"] = 1 - ratio(traced.goodput(), base.goodput())

	val["runtime.allocs_per_commit"] = float64(base.closed.mem.Mallocs-base.open.mem.Mallocs) / commits
	val["runtime.alloc_bytes_per_commit"] = float64(base.closed.mem.TotalAlloc-base.open.mem.TotalAlloc) / commits
	val["runtime.gc_pause_ms"] = float64(base.closed.mem.PauseTotalNs-base.open.mem.PauseTotalNs) / 1e6

	// The budget: where a committed transaction's wall time went, layer by
	// layer, next to the floor the paper's delay count puts under it.
	parts := []struct {
		name string
		ms   float64
	}{
		{"kv.read", ms(smp.read, 0.5)},
		{"kv.submit", ms(smp.submit, 0.5)},
		{"begin_leg", ms(smp.beginLeg, 0.5)},
		{"prepare", ms(smp.prepare, 0.5)},
		{"protocol_span", ms(smp.protoSpan, 0.5)},
		{"apply", ms(smp.apply, 0.5)},
		{"result_leg", ms(smp.resultLeg, 0.5)},
	}
	var b strings.Builder
	sum := 0.0
	for _, p := range parts {
		fmt.Fprintf(&b, " %s %.3f +", p.name, p.ms)
		sum += p.ms
	}
	wall := median(traced.acc.latMs)
	floor := val["protocols.inbac.nice_delays"] * float64(f.u) / 1e6
	fmt.Printf("%s budget_ms:%s = %.3f of txn p50 %.3f (residual %.3f); paper floor %g delays x U = %.3f\n",
		w.Name, strings.TrimSuffix(b.String(), " +"), sum, wall, wall-sum, val["protocols.inbac.nice_delays"], floor)
	fmt.Printf("%s traced: %d attempts, %d joined with all %d peers' spans, written to %s\n",
		w.Name, len(attempts), smp.joined, nPeers, path)

	res := &result{Correct: v.correct}
	for _, ws := range s.windows {
		res.Attempted += ws.acc.commits + ws.acc.abandoned
		res.Failed += ws.acc.abandoned
	}
	return res, v.detail, res.fill(perLayer, val)
}

// microRuns fills val with the standalone per-layer measurements.
func microRuns(w workload, z *zipf, val map[string]float64) error {
	var err error
	if val["wire.envelope_roundtrip_ns"], val["wire.vote_envelope_bytes"], err = microWire(); err != nil {
		return err
	}
	if val["live.tcp.send_ns_per_envelope"], err = microTCPSend(); err != nil {
		return err
	}
	if val["live.instance.cpu_us_per_txn"], val["live.instance.allocs_per_txn"], err = microInstance("inbac"); err != nil {
		return err
	}
	if val["live.instance.2pc.cpu_us_per_txn"], val["live.instance.2pc.allocs_per_txn"], err = microInstance("2pc"); err != nil {
		return err
	}
	for _, p := range []commit.Protocol{commit.INBAC, commit.TwoPC, commit.PaxosCommit} {
		prefix := "protocols." + string(p)
		if val[prefix+".nice_delays"], val[prefix+".nice_messages"], err = microNice(p); err != nil {
			return err
		}
	}
	val["loadgen.gen_ns_per_txn"] = microLoadgen(w.Gen, z)
	return nil
}

// child runs one workload in a child process, so the obs.M registry, the
// heap and VmHWM are that workload's alone, and returns its result. The
// child's output is passed through.
func child(name string, seed int64, seconds, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line is not a result: %w", name, trace, err)
	}
	return &res, nil
}

// runAll is the one command: every workload, measured then traced.
func runAll(seed int64, seconds int) error {
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(w.Name, seed, seconds, trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// selfCheck runs the measured pass of every workload twice on the same
// code and fails if any end-to-end metric differs between the two by more
// than the bound BENCHMARK.json gives it.
func selfCheck(seed int64, seconds int) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("self-check needs the repository root as working directory: %w", err)
	}
	var rounds [2]map[string]*result
	for r := range rounds {
		rounds[r] = make(map[string]*result)
		for _, w := range workloads {
			if rounds[r][w.Name], err = child(w.Name, seed, seconds, 0); err != nil {
				return err
			}
		}
	}
	over := 0
	fmt.Printf("%-20s %-18s %12s %12s %8s %8s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := rounds[0][w.Name].Metrics[m.Name].Value, rounds[1][w.Name].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			flag := ""
			if diff > m.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-20s %-18s %12.4f %12.4f %7.1f%% %7.1f%%%s\n", w.Name, m.Name, a, b, 100*diff, 100*m.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("self-check: %d end-to-end differences exceed their bound", over)
	}
	return nil
}
