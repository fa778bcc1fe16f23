package kv

import (
	"sort"
	"strings"
	"testing"

	"atomiccommit/commit"
	"atomiccommit/internal/obs"
)

// benchmarkCounters mirrors counterNames in benchmark/layers.go: the obs.M
// counters the repo benchmark diffs around a window.
var benchmarkCounters = []string{
	"live.send.envelopes", "live.send.bytes", "live.tcp.flush.frames",
	"live.tcp.dials", "live.tcp.evictions",
	"live.mesh.envelopes", "live.mesh.bytes",
	"decide_path.inbac.fast", "decide_path.inbac.help-fast", "decide_path.inbac.consensus",
	"kv.conflict.intent", "kv.conflict.stale_read",
	"kv.remote.legs", "kv.remote.read.batches", "kv.remote.read.retries",
	"kv.cache.hit", "kv.cache.miss", "kv.cache.stale_abort",
}

// TestMetricInventory pins obs.M to the counters something reads. After a
// write and a read-only transaction on a local and on a loopback TCP store,
// every registered name is one the benchmark diffs, a decide_path.* count
// or an anomaly count that tests read; and every name the benchmark diffs
// outside decide_path.* is registered, since CounterValue reads 0 for an
// unknown name and a renamed counter would otherwise vanish from the
// benchmark's columns unnoticed.
func TestMetricInventory(t *testing.T) {
	t.Parallel()
	ctx := testCtx(t)
	remote, _, _ := remoteDeployment(t, 3, commit.Options{})
	for _, s := range []*Store{open(t, 3, commit.Options{}), remote} {
		commitSeed(t, ctx, s, func(w *Txn) { w.Put("a", "1") })
		commitSeed(t, ctx, s, func(r *Txn) {
			if _, ok := r.Get("a"); !ok {
				t.Fatal(`Get("a") found nothing after its write committed`)
			}
		})
	}

	known := map[string]bool{"obs.anomalies": true}
	for _, name := range benchmarkCounters {
		known[name] = true
	}
	snap := obs.M.Snapshot()
	var unread []string
	for name := range snap {
		if !known[name] && !strings.HasPrefix(name, "decide_path.") {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("obs.M registers counters nothing reads: %v", unread)
	}
	for _, name := range benchmarkCounters {
		if _, ok := snap[name]; !ok && !strings.HasPrefix(name, "decide_path.") {
			t.Errorf("the benchmark diffs %q, which no code registers", name)
		}
	}
}
