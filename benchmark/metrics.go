package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names, units and directions (and the end-to-end bounds); benchmark_test.go
// keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the seven metrics every workload reports with tracing off.
// commit_frac is ISSUE 12's failed_frac turned around (1 - failed_frac):
// the driver divides spreads by the median, and failed_frac's median is 0
// on every healthy steady workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_txn_s", "txn/s"},
	{"txn_p50_ms", "ms"},
	{"txn_p99_ms", "ms"},
	{"commit_frac", "fraction"},
	{"cpu_us_per_commit", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, grouped by the module they
// measure. README.md says which end-to-end metric each should move, and on
// which workload.
var perLayer = []metricDef{
	// internal/wire, internal/live codec
	{"wire.envelope_roundtrip_ns", "ns"},
	{"wire.vote_envelope_bytes", "B"},
	// internal/live TCP
	{"live.tcp.send_ns_per_envelope", "ns"},
	{"live.tcp.envelopes_per_commit", "count"},
	{"live.tcp.bytes_per_commit", "B"},
	{"live.tcp.frames_per_commit", "count"},
	{"live.tcp.dials_setup", "count"},
	{"live.tcp.dials_window", "count"},
	{"live.tcp.evictions", "count"},
	// internal/live mesh
	{"live.mesh.envelopes_per_commit", "count"},
	{"live.mesh.bytes_per_commit", "B"},
	// internal/live Instance
	{"live.instance.cpu_us_per_txn", "us"},
	{"live.instance.allocs_per_txn", "count"},
	{"live.instance.2pc.cpu_us_per_txn", "us"},
	{"live.instance.2pc.allocs_per_txn", "count"},
	// internal/protocols, internal/consensus, internal/sim
	{"protocols.inbac.nice_delays", "count"},
	{"protocols.inbac.nice_messages", "count"},
	{"protocols.2pc.nice_delays", "count"},
	{"protocols.2pc.nice_messages", "count"},
	{"protocols.paxoscommit.nice_delays", "count"},
	{"protocols.paxoscommit.nice_messages", "count"},
	{"protocols.envelopes_over_bound", "ratio"},
	{"protocols.span_over_u_p50", "ratio"},
	{"protocols.fast_path_frac", "fraction"},
	{"protocols.timing_abort_frac", "fraction"},
	{"protocols.agreement_violations", "count"},
	// commit (Client, Peer, Cluster)
	{"commit.begin_leg_p50_us", "us"},
	{"commit.vote_skew_p50_us", "us"},
	{"commit.vote_skew_p99_us", "us"},
	{"commit.protocol_span_p50_ms", "ms"},
	{"commit.protocol_span_p99_ms", "ms"},
	{"commit.apply_p50_us", "us"},
	{"commit.result_leg_p50_us", "us"},
	{"commit.visibility_lag_p99_us", "us"},
	{"commit.self_p50_us", "us"},
	// kv shard
	{"kv.shard.stage_p50_us", "us"},
	{"kv.shard.prepare_p50_us", "us"},
	{"kv.shard.prepare_p99_us", "us"},
	{"kv.shard.commit_p50_us", "us"},
	{"kv.shard.query_p50_us", "us"},
	{"kv.shard.prepare_no_frac", "fraction"},
	{"kv.shard.intent_conflicts_per_txn", "count"},
	{"kv.shard.stale_reads_per_txn", "count"},
	// kv txn / remote / cache
	{"kv.read_p50_ms", "ms"},
	{"kv.submit_p50_ms", "ms"},
	{"kv.wait_p50_ms", "ms"},
	{"kv.remote.legs_per_txn", "count"},
	{"kv.remote.read_batches_per_txn", "count"},
	{"kv.remote.read_retries", "count"},
	{"kv.cache.hit_frac", "fraction"},
	{"kv.cache.stale_abort_frac", "fraction"},
	// internal/obs and the benchmark's own tracing
	{"obs.recorder_cpu_overhead_frac", "fraction"},
	{"obs.auditor_cpu_overhead_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
	// Go runtime and the load generator
	{"runtime.allocs_per_commit", "count"},
	{"runtime.alloc_bytes_per_commit", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_peak", "count"},
	{"loadgen.gen_ns_per_txn", "ns"},
}

// result is one run's outcome: the last line of standard output, as the
// driver's contract spells it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns measured values into the result's metric map, in defs' units,
// and fails if a metric the run owes was not measured.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// print writes every metric as "workload name value unit", then the result
// object as the last line.
func (r *result) print(workload string, defs []metricDef) error {
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Printf("%s %s %.6g %s\n", workload, d.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
