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

	"atomiccommit/internal/core"
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

// TestPeerDecisionCrossCheck exercises the peers' decision cross-checking
// (what separate processes have in place of the Cluster driver's agreement
// check): agreeing peers stay silent, and a diverging decision — injected,
// since the protocols agree in healthy runs — is reported through the
// anomaly hook with the transaction's timeline. The flight recorder is on,
// which is what makes peers broadcast their decisions at all.
func TestPeerDecisionCrossCheck(t *testing.T) {
	obs.Default.Enable()
	defer obs.Default.Reset()
	defer obs.Default.Disable()
	var mu sync.Mutex
	var kinds []string
	obs.SetAnomalyHook(func(d obs.Dump) {
		mu.Lock()
		kinds = append(kinds, d.Anomaly.Kind)
		mu.Unlock()
	})
	defer obs.SetAnomalyHook(nil)

	peers := startPeers(t, yesResources(3), Options{Protocol: "inbac", F: 1, Timeout: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ok, err := peers[0].Commit(ctx, "xcheck-1")
	if err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	for _, p := range peers[1:] {
		if ok, err := p.Wait(ctx, "xcheck-1"); err != nil || !ok {
			t.Fatalf("peer wait: ok=%v err=%v", ok, err)
		}
	}
	// Every peer broadcast its decision to the two others; once all six
	// announcements crossed the sockets, check nobody saw a mismatch.
	waitFor(t, "the decision announcements", func() bool {
		got := 0
		for _, e := range obs.Default.TxTimeline("xcheck-1") {
			if e.Kind == obs.EvRecv && e.Path == decidePath {
				got++
			}
		}
		return got == 6
	})
	mu.Lock()
	if len(kinds) != 0 {
		t.Fatalf("agreeing peers reported anomalies: %v", kinds)
	}
	mu.Unlock()

	// Inject a diverging announcement: peer 1 claims it decided abort for a
	// transaction everyone committed. The cross-check must fire.
	before := obs.M.CounterValue("obs.anomalies.peer-decision-mismatch")
	peers[0].observeDecision(core.ProcessID(2), "xcheck-1", core.Abort, false)
	if got := obs.M.CounterValue("obs.anomalies.peer-decision-mismatch"); got != before+1 {
		t.Fatalf("mismatch counter = %d, want %d", got, before+1)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kinds) != 1 || kinds[0] != "peer-decision-mismatch" {
		t.Fatalf("anomaly kinds = %v, want [peer-decision-mismatch]", kinds)
	}
}

// TestPeerStashedDecisionCrossCheck covers the other ordering: the remote
// decision arrives before the local one lands, is stashed, and is checked
// when the local decision resolves.
func TestPeerStashedDecisionCrossCheck(t *testing.T) {
	var mu sync.Mutex
	var kinds []string
	obs.SetAnomalyHook(func(d obs.Dump) {
		mu.Lock()
		kinds = append(kinds, d.Anomaly.Kind)
		mu.Unlock()
	})
	defer obs.SetAnomalyHook(nil)

	peers := startPeers(t, yesResources(3), Options{Protocol: "inbac", F: 1, Timeout: 50 * time.Millisecond})

	// Stash a bogus abort report for a transaction that has not started
	// anywhere, then run it to commit: the stash must be drained and the
	// divergence reported when the local decision lands.
	peers[0].observeDecision(core.ProcessID(3), "xcheck-stash", core.Abort, false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ok, err := peers[0].Commit(ctx, "xcheck-stash")
	if err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(kinds)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kinds) == 0 || kinds[0] != "peer-decision-mismatch" {
		t.Fatalf("anomaly kinds = %v, want peer-decision-mismatch first", kinds)
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
