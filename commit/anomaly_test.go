package commit

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// TestINBACViolationFlightRecorder reproduces the known INBAC agreement
// violation (ROADMAP: ~1 in 500 mesh transactions at tight U fast-decides
// commit on one member while another goes through the help/consensus path
// to abort) and asserts the flight recorder delivered what it exists for: a
// complete merged per-member timeline of the offending transaction, dumped
// the moment Cluster.finish's cross-member check fires.
//
// The violation is a real, documented protocol bug under violated timing
// bounds — this test pins the observability of it, not the bug itself. It
// drives batches under latency jitter beyond U until the check fires; if
// the interleaving does not reproduce within the budget the test skips
// (never a false failure on a lucky scheduler).
func TestINBACViolationFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("violation reproduction needs load; skipped in -short")
	}

	obs.Default.Enable()
	defer obs.Default.Disable()
	defer obs.Default.Reset()
	defer obs.SetAnomalyHook(nil)
	defer obs.SetDumpDir("")

	dir := t.TempDir()
	obs.SetDumpDir(dir)
	var mu sync.Mutex
	var dumps []obs.Dump
	obs.SetAnomalyHook(func(d obs.Dump) {
		mu.Lock()
		dumps = append(dumps, d)
		mu.Unlock()
	})

	// The live auditor watches the same run: the violation must also be
	// classified as an NBAC agreement violation through the shared
	// predicates, not only caught by Cluster.finish's ad-hoc check.
	aud := obs.NewAuditor(obs.AuditorConfig{})
	obs.SetAuditor(aud)
	defer obs.SetAuditor(nil)

	const (
		n, f     = 4, 1
		u        = 5 * time.Millisecond
		perRound = 256
		rounds   = 96
	)
	deadline := time.Now().Add(90 * time.Second)

	var hit *obs.Dump
search:
	for round := 0; round < rounds && time.Now().Before(deadline); round++ {
		rs := make([]Resource, n)
		for i := range rs {
			rs[i] = ResourceFunc{}
		}
		cl, err := NewCluster(rs, Options{
			Protocol: "inbac", F: f, Timeout: u, MaxInFlight: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Jitter one-way latency up to ~2.5U: the violation needs some
		// members' acks delayed past their 2U timer while others' complete
		// in time (each round reseeds so rounds explore different
		// interleavings deterministically per seed).
		cl.Mesh().Latency = live.Jitter(0, 12*time.Millisecond, int64(round+1))

		ids := make([]string, perRound)
		for i := range ids {
			ids[i] = fmt.Sprintf("anom-r%d-%d", round, i)
		}
		_, err = cl.CommitMany(context.Background(), ids)
		cl.Close()
		if err != nil && !strings.Contains(err.Error(), "agreement violation") {
			t.Fatalf("round %d: unexpected error: %v", round, err)
		}
		mu.Lock()
		for i := range dumps {
			if dumps[i].Anomaly.Kind == "cluster-agreement-violation" {
				hit = &dumps[i]
			}
		}
		mu.Unlock()
		if hit != nil {
			break search
		}
	}
	if hit == nil {
		t.Skip("agreement violation did not reproduce within budget (lucky scheduler); nothing to assert")
	}

	// The dump must be the complete multi-member story: every member's
	// vote and decide, and both decision values that contradicted.
	txID := hit.Anomaly.TxID
	decided := make(map[core.ProcessID]string)
	voted := make(map[core.ProcessID]bool)
	sends := 0
	for _, e := range hit.Events {
		if e.TxID != txID {
			t.Fatalf("dump for %s contains foreign event for %s", txID, e.TxID)
		}
		switch e.Kind {
		case obs.EvDecide:
			decided[e.Proc] = e.Note
		case obs.EvVote:
			voted[e.Proc] = true
		case obs.EvSend:
			sends++
		}
	}
	values := make(map[string]bool)
	for p := core.ProcessID(1); p <= n; p++ {
		if !voted[p] {
			t.Errorf("timeline missing %v's vote", p)
		}
		v, ok := decided[p]
		if !ok {
			t.Errorf("timeline missing %v's decision", p)
			continue
		}
		values[v] = true
	}
	if len(values) < 2 {
		t.Errorf("timeline decisions %v do not show the disagreement", decided)
	}
	if sends == 0 {
		t.Error("timeline has no send events; transport instrumentation missing")
	}

	// Events must be in causal (HLC) order — the "interleaving" promise —
	// and every receive must appear after the send it observed: the
	// envelope's HLC stamp rides along as EvRecv.Arg, so the matching
	// EvSend is identifiable, not inferred from wall clocks.
	recvs, matched := 0, 0
	for i := 1; i < len(hit.Events); i++ {
		if hit.Events[i-1].HLC > hit.Events[i].HLC {
			t.Errorf("timeline out of HLC order at %d", i)
		}
	}
	for i, e := range hit.Events {
		if e.Kind != obs.EvRecv || e.Arg == 0 {
			continue
		}
		recvs++
		sent := obs.HLC(e.Arg)
		if e.HLC <= sent {
			t.Errorf("recv %d not after its send stamp: recv=%v sent=%v", i, e.HLC, sent)
		}
		for j := 0; j < i; j++ {
			if hit.Events[j].Kind == obs.EvSend && hit.Events[j].HLC == sent {
				matched++
				break
			}
		}
	}
	if recvs == 0 {
		t.Error("timeline has no HLC-stamped receives; transport instrumentation missing")
	}
	if matched != recvs {
		t.Errorf("only %d of %d receives have their matching send earlier in the timeline", matched, recvs)
	}

	// The auditor reached the same verdict through the shared predicates,
	// and dumped it with the transaction's timeline.
	if v := aud.Violations(); v["audit-agreement"] == 0 {
		t.Errorf("auditor did not classify an agreement violation: %v", v)
	}
	auditDumped := false
	mu.Lock()
	for i := range dumps {
		if dumps[i].Anomaly.Kind == "audit-agreement" && dumps[i].Anomaly.TxID == txID {
			auditDumped = true
		}
	}
	mu.Unlock()
	if !auditDumped {
		t.Errorf("no audit-agreement dump for the violating transaction %s", txID)
	}

	// And the dump files landed next to the run.
	for _, ext := range []string{".json", ".txt"} {
		path := filepath.Join(dir, "anomaly-"+txID+"-cluster-agreement-violation"+ext)
		if _, err := os.Stat(path); err != nil {
			t.Errorf("dump file: %v", err)
		}
	}
	t.Logf("reproduced on %s:\n%s", txID, hit.Interleaving())
}
