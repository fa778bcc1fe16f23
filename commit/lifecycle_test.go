package commit

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// TestWaitDuringSlowPrepare: while a protocol envelope's delivery is still
// inside Resource.Prepare — the transaction is claimed, its instance not yet
// published — a concurrent Wait must wait for that same run. It used to see
// neither an instance nor a cached outcome and answer "commit: peer closed".
func TestWaitDuringSlowPrepare(t *testing.T) {
	t.Parallel()
	const txID = "slow-prepare"
	entered := make(chan struct{})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	c := ctx(t)
	rs := yesResources(3)
	rs[1] = ResourceFunc{PrepareFn: func(string) bool {
		close(entered)
		<-gate
		return true
	}}
	peers := startPeers(t, rs, Options{Protocol: INBAC, F: 1, Timeout: 50 * time.Millisecond})

	// P1 and P3 start spontaneously (no begin is sent): the first thing P2
	// sees of the transaction is a protocol envelope, whose delivery then
	// blocks in P2's Prepare.
	type result struct {
		ok  bool
		err error
	}
	others := make(chan result, 2)
	for _, p := range []*Peer{peers[0], peers[2]} {
		p := p
		go func() {
			ok, err := p.Wait(c, txID)
			others <- result{ok, err}
		}()
	}
	<-entered

	racing := make(chan result, 1)
	go func() {
		ok, err := peers[1].Wait(c, txID)
		racing <- result{ok, err}
	}()
	select {
	case r := <-racing:
		t.Fatalf("Wait answered (ok=%v err=%v) while Prepare was still running", r.ok, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	release()

	// P2 voted late, so the indulgent protocol may legally abort; what
	// matters is that every peer answers, without error, and the same.
	want := <-racing
	if want.err != nil {
		t.Fatalf("racing Wait: %v", want.err)
	}
	for i := 0; i < 2; i++ {
		if r := <-others; r.err != nil || r.ok != want.ok {
			t.Fatalf("peer answered ok=%v err=%v, P2 answered ok=%v", r.ok, r.err, want.ok)
		}
	}
}

// TestApplyBeforeAck: an answer means the local Resource has applied the
// decision — Peer.Commit and Peer.Wait resolve only after their own
// Resource's callback returned, and a Cluster's Commit only after all n did.
// The callbacks are slow here, so answering on the decision alone loses.
func TestApplyBeforeAck(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: TwoPC, Timeout: 25 * time.Millisecond}
	slowResources := func(n int) ([]Resource, []atomic.Bool) {
		applied := make([]atomic.Bool, n)
		rs := make([]Resource, n)
		for i := range rs {
			i := i
			rs[i] = ResourceFunc{CommitFn: func(string) {
				time.Sleep(100 * time.Millisecond)
				applied[i].Store(true)
			}}
		}
		return rs, applied
	}

	rs, applied := slowResources(3)
	peers := startPeers(t, rs, opts)
	for i, p := range peers {
		var ok bool
		var err error
		if i == 0 {
			ok, err = p.Commit(ctx(t), "slow-apply")
		} else {
			ok, err = p.Wait(ctx(t), "slow-apply")
		}
		if err != nil || !ok {
			t.Fatalf("tcp P%d: ok=%v err=%v", i+1, ok, err)
		}
		if !applied[i].Load() {
			t.Errorf("tcp P%d answered before its Commit callback returned", i+1)
		}
	}

	rs, applied = slowResources(3)
	cl, err := NewCluster(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ok, err := cl.Commit(ctx(t), "slow-apply"); err != nil || !ok {
		t.Fatalf("mesh: ok=%v err=%v", ok, err)
	}
	for i := range applied {
		if !applied[i].Load() {
			t.Errorf("mesh: Commit returned before P%d applied", i+1)
		}
	}
}

// TestLivePathEnvelopeBound pins the paper's message bound on the live
// path: a nice INBAC execution on a 4-member Cluster (f=1) puts exactly
// 2fn = 8 envelopes on the mesh — no begin, no decision broadcast — and
// watching it adds none: not an installed auditor, not the flight recorder.
// Not parallel: the counter is process-wide (parallel tests wait until the
// serial ones finished).
func TestLivePathEnvelopeBound(t *testing.T) {
	const n, f = 4, 1
	run := func(t *testing.T, want int64) {
		// A busy machine can make a run miss its timing bound, and the
		// fallback paths legitimately cost more; measure nice runs only.
		for attempt := 0; attempt < 5; attempt++ {
			cl, err := NewCluster(yesResources(n), Options{Protocol: INBAC, F: f, Timeout: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			before := obs.M.CounterValue("live.mesh.envelopes")
			r := cl.begin(newTxn(ctx(t), "bound"), false)
			ok, err := r.fut.Wait(ctx(t))
			got := obs.M.CounterValue("live.mesh.envelopes") - before
			nice := ok && err == nil
			for _, tx := range r.txns {
				nice = nice && tx.inst.DecidePath() == "fast"
			}
			cl.Close()
			if !nice {
				t.Logf("attempt %d was not a nice execution (ok=%v err=%v, %d envelopes)", attempt, ok, err, got)
				continue
			}
			if got != want {
				t.Fatalf("a nice execution moved live.mesh.envelopes by %d, want %d", got, want)
			}
			return
		}
		t.Fatal("no nice execution in 5 attempts")
	}

	t.Run("unobserved", func(t *testing.T) { run(t, 2*f*n) })
	t.Run("audited", func(t *testing.T) {
		obs.SetAuditor(obs.NewAuditor(obs.AuditorConfig{}))
		defer obs.SetAuditor(nil)
		run(t, 2*f*n)
	})
	t.Run("recorded", func(t *testing.T) {
		obs.Default.Enable()
		defer obs.Default.Reset()
		defer obs.Default.Disable()
		run(t, 2*f*n)
	})
}

// TestNiceCommitsAnswerNoOutcome: retiring a transaction at the apply adds
// no envelope to a nice execution. Every protocol envelope of one reaches
// its receiver before the receiver decides, so no peer answers one from its
// outcome cache (outcomePath). Only nice runs count: a member that decides
// late legitimately writes to peers that already retired.
func TestNiceCommitsAnswerNoOutcome(t *testing.T) {
	t.Parallel()
	const n, f, runs = 4, 1, 64
	cl, err := NewCluster(yesResources(n), Options{Protocol: INBAC, F: f, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	outcomes := make(map[string]int)
	cl.Mesh().Drop = func(e live.Envelope) bool {
		if e.Path == outcomePath {
			mu.Lock()
			outcomes[e.TxID]++
			mu.Unlock()
		}
		return false
	}
	var nice []string
	rs := make([]*txnRun, runs)
	for i := range rs { // concurrently: a nice run takes 2 U
		rs[i] = cl.begin(newTxn(ctx(t), fmt.Sprintf("nice-%d", i)), false)
	}
	for _, r := range rs {
		ok, err := r.fut.Wait(ctx(t))
		fast := ok && err == nil
		for _, tx := range r.txns {
			fast = fast && tx.inst.DecidePath() == "fast"
		}
		if fast {
			nice = append(nice, r.fut.TxID)
		}
	}
	if len(nice) < runs/2 {
		t.Fatalf("only %d of %d executions were nice", len(nice), runs)
	}
	// One more commit takes 2 U, in which any late envelope of the runs
	// above is delivered, and answered.
	if _, err := cl.Commit(ctx(t), "fence"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, txID := range nice {
		if outcomes[txID] != 0 {
			t.Errorf("nice execution %s: %d outcome envelopes, want 0", txID, outcomes[txID])
		}
	}
}
