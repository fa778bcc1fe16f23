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
// Resource's callback returned, and a Cluster's Commit only after its
// coordinator's did, as a Client's commit on TCP. The callbacks are slow
// here, so answering on the decision alone loses.
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
	// The cluster's client sends its first commit to P1.
	if ok, err := cl.Commit(ctx(t), "slow-apply"); err != nil || !ok {
		t.Fatalf("mesh: ok=%v err=%v", ok, err)
	}
	if !applied[0].Load() {
		t.Error("mesh: Commit returned before its coordinator P1 applied")
	}
	for i, p := range cl.peers {
		if ok, err := p.Wait(ctx(t), "slow-apply"); err != nil || !ok {
			t.Fatalf("mesh P%d: ok=%v err=%v", i+1, ok, err)
		}
		if !applied[i].Load() {
			t.Errorf("mesh P%d answered before its Commit callback returned", i+1)
		}
	}
}

// envelopesByPath counts the envelopes sent on cl's mesh from now on: on the
// protocol's paths, and on the reserved paths of the host's legs (the
// stage+go, the begins, the result; the outcome answer).
func envelopesByPath(cl *Cluster) (protocol, host func() int) {
	var mu sync.Mutex
	var p, h int
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		mu.Lock()
		if e.Path != "" && e.Path[0] == 0 {
			h++
		} else {
			p++
		}
		mu.Unlock()
		return false
	}})
	read := func(n *int) func() int {
		return func() int {
			mu.Lock()
			defer mu.Unlock()
			return *n
		}
	}
	return read(&p), read(&h)
}

// fastDecisions reads how many INBAC decisions, process-wide, were taken on
// the fast path.
func fastDecisions() int64 { return obs.M.CounterValue("decide_path.inbac.fast") }

// TestLivePathEnvelopeBound pins the paper's message bound on the live
// path: a nice INBAC execution on a 4-member Cluster (f=1) puts exactly
// 2fn = 8 envelopes on the mesh's protocol paths — no decision broadcast —
// and n+1 = 5 on the host's legs: the client's stage+go, the coordinator's n-1
// begins and its result. Watching it adds none: not an installed auditor,
// not the flight recorder. A run is nice when every member decided on the
// fast path: decide_path.inbac.fast moved by n. Not parallel: the counters
// are process-wide (parallel tests wait until the serial ones finished).
func TestLivePathEnvelopeBound(t *testing.T) {
	const n, f = 4, 1
	run := func(t *testing.T) {
		// A busy machine can make a run miss its timing bound, and the
		// fallback paths legitimately cost more; measure nice runs only.
		for attempt := 0; attempt < 5; attempt++ {
			cl, err := NewCluster(yesResources(n), Options{Protocol: INBAC, F: f, Timeout: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			protocol, host := envelopesByPath(cl)
			before, fast := obs.M.CounterValue("live.mesh.envelopes"), fastDecisions()
			ok, err := cl.Commit(ctx(t), "bound")
			waitApplied(t, cl, "bound")
			got := obs.M.CounterValue("live.mesh.envelopes") - before
			fast = fastDecisions() - fast
			gotP, gotH := protocol(), host()
			cl.Close()
			if !ok || err != nil || fast != n {
				t.Logf("attempt %d was not a nice execution (ok=%v err=%v, %d fast decisions, %d+%d envelopes)", attempt, ok, err, fast, gotP, gotH)
				continue
			}
			if gotP != 2*f*n || gotH != n+1 {
				t.Fatalf("a nice execution sent %d envelopes on protocol paths and %d on host legs, want %d and %d", gotP, gotH, 2*f*n, n+1)
			}
			if got != 2*f*n+n+1 {
				t.Fatalf("a nice execution moved live.mesh.envelopes by %d, want %d", got, 2*f*n+n+1)
			}
			return
		}
		t.Fatal("no nice execution in 5 attempts")
	}

	t.Run("unobserved", run)
	t.Run("audited", func(t *testing.T) {
		obs.SetAuditor(obs.NewAuditor(obs.AuditorConfig{}))
		defer obs.SetAuditor(nil)
		run(t)
	})
	t.Run("recorded", func(t *testing.T) {
		obs.Default.Enable()
		defer obs.Default.Reset()
		defer obs.Default.Disable()
		run(t)
	})
}

// TestNiceCommitsAnswerNoOutcome: retiring a transaction at the apply adds
// no envelope to a nice execution. Every protocol envelope of one reaches
// its receiver before the receiver decides, so no peer answers one from its
// outcome cache (outcomePath). Only nice runs count: a member that decides
// late legitimately writes to peers that already retired. A batch of
// concurrent commits is nice when decide_path.inbac.fast moved by n per
// commit. Not parallel: that counter is process-wide.
func TestNiceCommitsAnswerNoOutcome(t *testing.T) {
	const n, f, batches, batch = 4, 1, 8, 8
	cl, err := NewCluster(yesResources(n), Options{Protocol: INBAC, F: f, Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	outcomes := make(map[string]int)
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		if e.Path == outcomePath {
			mu.Lock()
			outcomes[e.TxID]++
			mu.Unlock()
		}
		return false
	}})
	var nice []string
	for b := 0; b < batches; b++ {
		fast := fastDecisions()
		ids := make([]string, batch)
		txns := make([]*Txn, batch)
		for i := range ids { // concurrently: a nice run takes 2 U
			ids[i] = fmt.Sprintf("nice-%d-%d", b, i)
			txns[i] = cl.Submit(ctx(t), ids[i])
		}
		all := true
		for i, x := range txns {
			ok, err := x.Wait(ctx(t))
			all = all && ok && err == nil
			waitApplied(t, cl, ids[i])
		}
		if all && fastDecisions()-fast == n*batch {
			nice = append(nice, ids...)
		}
	}
	if len(nice) < batches*batch/2 {
		t.Fatalf("only %d of %d executions were in nice batches", len(nice), batches*batch)
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
