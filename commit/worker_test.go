package commit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// The commit host spawns nothing per transaction, envelope or decision: a
// mesh destination's deliveries, a peer's applies and a coordinator's reply
// each run on a long-lived worker, and whatever bounds a transaction is a
// context watch or a sweep per peer or client. These tests pin that, and the
// workers' ordering and isolation.

// goroutineGrowth samples the process's goroutine count for d and returns
// the largest growth over base.
func goroutineGrowth(base int, d time.Duration) int {
	peak := runtime.NumGoroutine()
	for end := time.Now().Add(d); time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
		peak = max(peak, runtime.NumGoroutine())
	}
	return peak - base
}

// TestClusterSpawnsNothingPerTxn: 1024 transactions in flight on a Cluster
// cost fewer than 32 goroutines; the pipeline used to park one per
// transaction, and the mesh and the decisions spawned more. The peers run
// and apply every one, but the mesh drops each result, so none resolves
// while the count is taken; Close resolves them all with the closed client's
// error. Not parallel: it counts the process's goroutines.
func TestClusterSpawnsNothingPerTxn(t *testing.T) {
	const inFlight = 1024
	cl, err := NewCluster(yesResources(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool { return e.Path == resultPath }})
	base := runtime.NumGoroutine()
	txns := make([]*Txn, inFlight)
	for i := range txns {
		txns[i] = cl.Submit(ctx(t), "")
	}
	grew := goroutineGrowth(base, 200*time.Millisecond)
	for _, x := range txns {
		select {
		case <-x.Done():
			t.Fatalf("%s resolved (err=%v) while the count was taken", x.TxID, x.Err())
		default:
		}
	}
	cl.Close() // resolves every submission still in flight
	for _, x := range txns {
		if _, err := x.Wait(ctx(t)); !errors.Is(err, errClientClosed) {
			t.Fatalf("%s after Close: %v, want %v", x.TxID, err, errClientClosed)
		}
	}
	t.Logf("%d transactions in flight grew the goroutine count by %d", inFlight, grew)
	if grew >= 32 {
		t.Fatal("a goroutine per transaction")
	}
}

// TestPeersAndClientSpawnNothingPerTxn: 512 submissions in flight from a
// Client through four TCP Peers cost fewer than 32 goroutines. The
// coordinators used to park one per go until their apply, and the client one
// watcher per submission. Every apply is held on a gate, so each commit stays
// in flight — decided, not applied, unanswered — while the count is taken.
// Not parallel: it counts the process's goroutines.
func TestPeersAndClientSpawnNothingPerTxn(t *testing.T) {
	const inFlight = 512
	gate := make(chan struct{})
	var held sync.Once
	var gated bool
	var mu sync.Mutex
	rs := make([]Resource, 4)
	for i := range rs {
		rs[i] = ResourceFunc{CommitFn: func(string) {
			mu.Lock()
			wait := gated
			mu.Unlock()
			if wait {
				<-gate
			}
		}}
	}
	release := func() { held.Do(func() { close(gate) }) }
	defer release()
	opts := Options{Protocol: TwoPC, Timeout: 300 * time.Millisecond}
	addrs := reserveAddrs(t, len(rs))
	for i, r := range rs {
		p, err := NewPeer(i+1, addrs, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
	}
	c, err := NewClient(len(rs)+1, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// One commit coordinated by each peer first: every connection the count
	// could see being made exists before it is taken.
	warm := make([]*Txn, len(rs))
	for i := range warm {
		warm[i] = c.SubmitAt(ctx(t), "", i+1)
	}
	for i, x := range warm {
		if _, err := x.Wait(ctx(t)); err != nil {
			t.Fatalf("warm-up through P%d: %v", i+1, err)
		}
	}
	mu.Lock()
	gated = true
	mu.Unlock()

	base := runtime.NumGoroutine()
	txns := make([]*Txn, inFlight)
	for i := range txns {
		txns[i] = c.SubmitAt(ctx(t), "", i%len(rs)+1)
	}
	// Long enough to see the commits both before their decision and held
	// in their apply (2PC decides at U).
	grew := goroutineGrowth(base, 2*opts.Timeout)
	release()
	for _, x := range txns {
		if _, err := x.Wait(ctx(t)); err != nil { // 2PC may abort on a late vote
			t.Fatalf("%s: %v", x.TxID, err)
		}
	}
	t.Logf("%d submissions in flight grew the goroutine count by %d", inFlight, grew)
	if grew >= 32 {
		t.Fatal("a goroutine per submission")
	}
}

// TestSlowApplyIsolated: a Resource callback that takes its time at P1 holds
// up P1's applies only; P2 and P3 apply the same decision meanwhile.
func TestSlowApplyIsolated(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	applied := make(chan core.ProcessID, 3)
	rs := make([]Resource, 3)
	for i := range rs {
		id := core.ProcessID(i + 1)
		rs[i] = ResourceFunc{CommitFn: func(string) {
			if id == 1 {
				<-gate
			}
			applied <- id
		}}
	}
	cl, err := NewCluster(rs, Options{Protocol: TwoPC, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fut := cl.client.SubmitAt(ctx(t), "slow-at-p1", 1)
	for range 2 {
		select {
		case id := <-applied:
			if id == 1 {
				t.Fatal("P1 applied through its gate")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("P2 and P3 did not apply while P1's callback was held")
		}
	}
	select {
	case <-fut.Done():
		t.Fatal("the future resolved before P1 applied")
	default:
	}
	close(gate)
	if ok, err := fut.Wait(ctx(t)); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

// orderedPeer is a peer on a mesh endpoint whose Resource records the order
// of its commits; the first one closes entered and waits for gate, so a
// queue builds up.
func orderedPeer(t *testing.T, entered chan<- struct{}, gate <-chan struct{}) (*Peer, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var order []string
	res := ResourceFunc{CommitFn: func(txID string) {
		if txID == "tx-0" {
			close(entered)
			<-gate
		}
		mu.Lock()
		order = append(order, txID)
		mu.Unlock()
	}}
	opts, err := Options{}.withDefaults(2)
	if err != nil {
		t.Fatal(err)
	}
	p := newPeer(1, 2, live.NewMesh().Endpoint(1), res, opts)
	return p, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(order)
	}
}

// decide hands p decisions to commit, in the order given, the way the
// instances' Decided hooks do.
func decide(p *Peer, ids []string) []*txn {
	recs := make([]*txn, len(ids))
	for i, id := range ids {
		recs[i] = &txn{p: p, phase: running, done: make(chan struct{})}
		recs[i].inst.Init(live.Config{ID: p.id, N: p.n, TxID: id, New: p.mk})
		p.apply.Push(decision{recs[i], core.Commit})
	}
	return recs
}

// TestApplyInDecisionOrder: a peer applies its decisions one at a time, in
// the order they landed — also those that queued behind a slow callback.
func TestApplyInDecisionOrder(t *testing.T) {
	t.Parallel()
	entered, gate := make(chan struct{}), make(chan struct{})
	p, order := orderedPeer(t, entered, gate)
	defer p.Close()
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = fmt.Sprintf("tx-%d", i)
	}
	recs := decide(p, ids)
	close(gate)
	for _, r := range recs {
		<-r.done
	}
	if got := order(); !slices.Equal(got, ids) {
		t.Fatalf("applied in the order %v, want %v", got, ids)
	}
}

// TestCloseWithQueuedApplies: Close returns at once even while the apply
// worker is held in a callback with decisions queued behind it. Like a crash,
// it drops what is queued; the callback in hand finishes, and then the worker
// exits. Not parallel: it counts the process's goroutines.
func TestCloseWithQueuedApplies(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	live.After(0, func() {}) // the process's timer goroutine is not the peer's
	base := runtime.NumGoroutine()
	p, order := orderedPeer(t, entered, gate)
	recs := decide(p, []string{"tx-0", "tx-1", "tx-2", "tx-3"})
	<-entered
	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close waited for the apply worker")
	}
	close(gate)
	<-recs[0].done
	waitFor(t, "the peer's goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
	if got := order(); !slices.Equal(got, []string{"tx-0"}) {
		t.Fatalf("applied %v, want only the callback in hand when Close came", got)
	}
}

// TestSubmitRunningContextExpiry: a transaction whose context expires while
// it runs resolves with that error at once, and leaves the client's pending
// set exactly once, however late the run itself ends: its result, when it
// comes, finds nothing to resolve. The peers run it to its decision, and the
// auditor finds no property violated. Not parallel: it installs the
// process-wide auditor.
func TestSubmitRunningContextExpiry(t *testing.T) {
	aud := obs.NewAuditor(obs.AuditorConfig{})
	obs.SetAuditor(aud)
	defer obs.SetAuditor(nil)
	rs, crs := resources(true, true, true)
	cl, err := NewCluster(rs, Options{Protocol: TwoPC, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Every envelope of "late" but its result takes 300ms: its context
	// expires mid-run, and its run ends long after, the result with it.
	cl.Mesh().SetShaper(live.LinkShaper{Delay: func(e live.Envelope) time.Duration {
		if e.TxID == "late" && e.Path != resultPath {
			return 300 * time.Millisecond
		}
		return 0
	}})
	pending := func() int {
		c := cl.client
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending)
	}
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	late := cl.Submit(short, "late")
	select {
	case <-late.Done():
	case <-time.After(time.Second):
		t.Fatal("the running transaction did not resolve within 1s of its 50ms context")
	}
	if late.Committed() || !errors.Is(late.Err(), context.DeadlineExceeded) {
		t.Fatalf("committed=%v err=%v, want the context's deadline", late.Committed(), late.Err())
	}
	if n := pending(); n != 0 {
		t.Fatalf("%d pending after late expired, want 0", n)
	}

	if ok, err := cl.Submit(ctx(t), "next").Wait(ctx(t)); err != nil || !ok {
		t.Fatalf("next: ok=%v err=%v", ok, err)
	}
	waitFor(t, "late's applies", func() bool {
		for _, cr := range crs {
			if cr.aborts.Load() != 1 {
				return false
			}
		}
		return true
	})
	time.Sleep(20 * time.Millisecond) // late's result reaches the client
	if n := pending(); n != 0 {
		t.Fatalf("%d pending with nothing running", n)
	}
	if !errors.Is(late.Err(), context.DeadlineExceeded) {
		t.Fatalf("late's result changed its outcome to err=%v", late.Err())
	}
	if ok, err := cl.Submit(ctx(t), "after").Wait(ctx(t)); err != nil || !ok {
		t.Fatalf("after: ok=%v err=%v", ok, err)
	}
	waitFor(t, "the auditor to check late, next and after", func() bool { return aud.Summary().TxnsChecked >= 3 })
	if s := aud.Summary(); len(s.Violations) != 0 {
		t.Fatalf("the auditor reports violations %v (transactions %v); want none", s.Violations, s.ViolationTxns)
	}
}
