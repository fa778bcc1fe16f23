package commit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
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

// TestPeerServeDebug drives the peer's observability endpoint.
func TestPeerServeDebug(t *testing.T) {
	peers := startPeers(t, yesResources(2), Options{Protocol: "2pc", Timeout: 50 * time.Millisecond})
	addr, err := peers[0].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peers[0].ServeDebug("127.0.0.1:0"); err == nil {
		t.Error("second ServeDebug should fail")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if ok, err := peers[0].Commit(ctx, "debug-1"); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var metrics map[string]any
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if v, ok := metrics["live.send.envelopes"].(float64); !ok || v <= 0 {
		t.Errorf("live.send.envelopes = %v, want > 0", metrics["live.send.envelopes"])
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(b) == 0 {
		t.Error("pprof cmdline empty")
	}

	// Close stops the server.
	peers[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr)); err != nil {
			if strings.Contains(err.Error(), "refused") || strings.Contains(err.Error(), "EOF") {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Error("debug endpoint still serving after Close")
}
