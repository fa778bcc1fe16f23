package commit

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"atomiccommit/internal/obs"
)

// startPeers boots one loopback peer per resource on ephemeral ports (see
// reserveAddrs) and closes them with the test.
func startPeers(t *testing.T, rs []Resource, opts Options) []*Peer {
	t.Helper()
	addrs := reserveAddrs(t, len(rs))
	peers := make([]*Peer, len(rs))
	for i, r := range rs {
		p, err := NewPeer(i+1, addrs, r, opts)
		if err != nil {
			t.Fatalf("peer %d: %v", i+1, err)
		}
		peers[i] = p
		t.Cleanup(p.Close)
	}
	return peers
}

// yesResources is n resources that vote yes and ignore the callbacks.
func yesResources(n int) []Resource {
	rs := make([]Resource, n)
	for i := range rs {
		rs[i] = ResourceFunc{}
	}
	return rs
}

// TestAuditedTCPCommitSendsNoDecision: with the flight recorder and an
// auditor on, a commit over loopback TCP still sends nothing beyond the
// protocol's envelopes. Each peer's instance reports its own decision to
// the process's auditor, which completes and checks the transaction with
// no decision broadcast: agreeing peers raise no anomaly, and nothing is
// sent or received on the retired "\x00decide" path.
func TestAuditedTCPCommitSendsNoDecision(t *testing.T) {
	obs.Default.Enable()
	defer obs.Default.Reset()
	defer obs.Default.Disable()
	aud := obs.NewAuditor(obs.AuditorConfig{})
	obs.SetAuditor(aud)
	defer obs.SetAuditor(nil)
	var mu sync.Mutex
	var kinds []string
	obs.SetAnomalyHook(func(d obs.Dump) {
		mu.Lock()
		kinds = append(kinds, d.Anomaly.Kind)
		mu.Unlock()
	})
	defer obs.SetAnomalyHook(nil)

	peers := startPeers(t, yesResources(3), Options{Protocol: "inbac", F: 1, Timeout: 50 * time.Millisecond})
	// Unique per run: under -count a straggling event of the previous run
	// may be recorded after that run reset the recorder.
	txID := fmt.Sprintf("observed-%d", time.Now().UnixNano())
	if ok, err := peers[0].Commit(ctx(t), txID); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	for _, p := range peers[1:] {
		if ok, err := p.Wait(ctx(t), txID); err != nil || !ok {
			t.Fatalf("peer wait: ok=%v err=%v", ok, err)
		}
	}

	if s := aud.Summary(); s.TxnsChecked != 1 || s.Incomplete != 0 || len(s.Violations) != 0 {
		t.Errorf("audit summary: %d checked, %d incomplete, violations %v; want 1, 0, none",
			s.TxnsChecked, s.Incomplete, s.Violations)
	}
	mu.Lock()
	if len(kinds) != 0 {
		t.Errorf("agreeing peers reported anomalies: %v", kinds)
	}
	mu.Unlock()
	for _, e := range obs.Default.TxTimeline(txID) {
		if e.Path == "\x00decide" {
			t.Errorf("%v: %v on the retired decision path", e.Proc, e.Kind)
		}
	}
}
