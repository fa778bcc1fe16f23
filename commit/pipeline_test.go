package commit

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
)

// TestSubmitConcurrentTransactions floods one cluster with concurrent
// submissions from many goroutines and
// checks every transaction commits and, once every peer applied it, every
// callback fired exactly once.
// Run under -race this is the pipeline's main interleaving test.
func TestSubmitConcurrentTransactions(t *testing.T) {
	t.Parallel()
	const total = 120
	rs, crs := resources(true, true, true)
	// U is generous: this test is about the pipeline's interleavings, and at
	// a tight U the race detector's slowdown makes INBAC miss its timing
	// bound — legal aborts, and now and then its known agreement bug.
	cl, err := NewCluster(rs, Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, total)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				txn := cl.Submit(ctx(t), fmt.Sprintf("conc-%d-%d", g, i))
				ok, err := txn.Wait(ctx(t))
				if err != nil {
					errs <- fmt.Errorf("%s: %w", txn.TxID, err)
				} else if !ok {
					errs <- fmt.Errorf("%s: unexpected abort", txn.TxID)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for g := 0; g < 4; g++ {
		for i := 0; i < total/4; i++ {
			waitApplied(t, cl, fmt.Sprintf("conc-%d-%d", g, i))
		}
	}
	for i, cr := range crs {
		if got := cr.commits.Load(); got != total {
			t.Errorf("resource %d: %d commits, want %d", i, got, total)
		}
		if got := cr.aborts.Load(); got != 0 {
			t.Errorf("resource %d: %d aborts, want 0", i, got)
		}
	}
}

func TestCommitManyMixedVotes(t *testing.T) {
	t.Parallel()
	// Resource 1 rejects transactions with a "no-" prefix.
	reject := ResourceFunc{PrepareFn: func(txID string) bool { return len(txID) < 3 || txID[:3] != "no-" }}
	rs := []Resource{ResourceFunc{}, reject, ResourceFunc{}}
	cl, err := NewCluster(rs, Options{Protocol: TwoPC, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ids := []string{"yes-1", "no-1", "yes-2", "no-2", "yes-3"}
	oks, err := cl.CommitMany(ctx(t), ids)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false, true}
	for i := range ids {
		if oks[i] != want[i] {
			t.Errorf("%s: committed=%v want %v", ids[i], oks[i], want[i])
		}
	}
}

func TestSubmitAllocatesTxIDs(t *testing.T) {
	t.Parallel()
	rs, _ := resources(true, true)
	cl, err := NewCluster(rs, Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a := cl.Submit(ctx(t), "")
	b := cl.Submit(ctx(t), "")
	if a.TxID == "" || b.TxID == "" || a.TxID == b.TxID {
		t.Fatalf("allocated IDs must be distinct and non-empty: %q %q", a.TxID, b.TxID)
	}
	for _, txn := range []*Txn{a, b} {
		if ok, err := txn.Wait(ctx(t)); err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", txn.TxID, ok, err)
		}
	}
}

func TestSubmitAfterCloseResolvesWithError(t *testing.T) {
	t.Parallel()
	rs, _ := resources(true, true)
	cl, err := NewCluster(rs, Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	txn := cl.Submit(ctx(t), "late")
	if ok, err := txn.Wait(ctx(t)); !errors.Is(err, errClientClosed) || ok {
		t.Fatalf("submit on a closed cluster: ok=%v err=%v, want %v", ok, err, errClientClosed)
	}
}

// TestSubmitSendsAtOnce: a client sends every submission at once, however
// many of its others are undecided. On a Cluster with default Options, 64
// submissions are held: every envelope of theirs but the stage+go is
// dropped, so each coordinator has prepared and never hears from the other
// peers, and each future waits for the client's 128 U bound (6.4 s). A 65th
// submission still commits at once. A Prepare that stalls cannot hold them
// instead: it runs on its peer's delivery goroutine and would stall the
// 65th too.
func TestSubmitSendsAtOnce(t *testing.T) {
	t.Parallel()
	cl, err := NewCluster(yesResources(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		return strings.HasPrefix(e.TxID, "held-") && e.Path != stageGoPath
	}})
	held := make([]*Txn, 64)
	for i := range held {
		held[i] = cl.Submit(ctx(t), fmt.Sprintf("held-%d", i))
	}
	c1, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if ok, err := cl.Submit(c1, "free").Wait(c1); err != nil || !ok {
		t.Fatalf("the 65th submission: ok=%v err=%v, want a commit with 64 others undecided", ok, err)
	}
	for _, x := range held {
		select {
		case <-x.Done():
			t.Fatalf("%s resolved (ok=%v err=%v), want it held", x.TxID, x.Committed(), x.Err())
		default:
		}
	}
}

// TestTxIDReuseRejected: the documented reuse rule is enforced. An ID that
// is in flight is rejected instead of silently cross-wiring instance
// routing; one that already decided gets its recorded decision from the
// outcome cache, and no Resource method runs for it again.
func TestTxIDReuseRejected(t *testing.T) {
	t.Parallel()
	var prepares atomic.Int32
	rs, crs := resources(true, true)
	counted := ResourceFunc{
		PrepareFn: func(txID string) bool { prepares.Add(1); return crs[0].Prepare(txID) },
		CommitFn:  crs[0].Commit,
		AbortFn:   crs[0].Abort,
	}
	cl, err := NewCluster([]Resource{counted, rs[1]}, Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if ok, err := cl.Commit(ctx(t), "dup"); err != nil || !ok {
		t.Fatalf("first use: ok=%v err=%v", ok, err)
	}
	waitApplied(t, cl, "dup")
	// Round-robin: one resubmission reaches P2, the other P1.
	if ok, err := cl.Commit(ctx(t), "dup"); err != nil || !ok {
		t.Fatalf("Commit with a decided txID: ok=%v err=%v, want the recorded commit", ok, err)
	}
	if ok, err := cl.Submit(ctx(t), "dup").Wait(ctx(t)); err != nil || !ok {
		t.Fatalf("Submit with a decided txID: ok=%v err=%v, want the recorded commit", ok, err)
	}
	if n := prepares.Load(); n != 1 {
		t.Errorf("P1 prepared dup %d times, want once", n)
	}
	for i, cr := range crs {
		if cr.commits.Load() != 1 || cr.aborts.Load() != 0 {
			t.Errorf("resource %d: commits=%d aborts=%d, want the first use's commit only", i, cr.commits.Load(), cr.aborts.Load())
		}
	}

	// In-flight rejection: hold a transaction open in Prepare and resubmit
	// its ID while it is still running.
	gate := make(chan struct{})
	var once sync.Once
	slow := ResourceFunc{PrepareFn: func(txID string) bool {
		if txID == "held" {
			once.Do(func() { <-gate })
		}
		return true
	}}
	cl2, err := NewCluster([]Resource{slow, ResourceFunc{}}, Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	first := cl2.Submit(ctx(t), "held")
	second := cl2.Submit(ctx(t), "held")
	if _, err := second.Wait(ctx(t)); err == nil {
		t.Fatal("Submit with an in-flight txID must resolve with an error")
	}
	close(gate)
	if ok, err := first.Wait(ctx(t)); err != nil || !ok {
		t.Fatalf("held transaction: ok=%v err=%v", ok, err)
	}
}

// TestAutoIDsSkipUsedTxIDs: auto-allocation must not collide with an ID a
// caller used explicitly — in flight or decided. A caller's txID of the
// allocated form is rejected, so an allocated ID is never answered from an
// outcome cache with another transaction's decision.
func TestAutoIDsSkipUsedTxIDs(t *testing.T) {
	t.Parallel()
	rs, crs := resources(true, true)
	cl, err := NewCluster(rs, Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The cluster's client, P3, allocates c3-1 first; c12-7 would be
	// another client's.
	for _, id := range []string{"c3-1", "c12-7"} {
		if ok, err := cl.Commit(ctx(t), id); !errors.Is(err, errAllocatedTxID) || ok {
			t.Fatalf("explicit %s: ok=%v err=%v, want %v", id, ok, err, errAllocatedTxID)
		}
	}
	for _, id := range []string{"c", "c3", "c3-", "c-1", "cx-1", "c3-1a", "tx-1"} {
		if allocatedForm(id) {
			t.Errorf("%q is not of the allocated form", id)
		}
	}
	if ok, err := cl.Commit(ctx(t), "tx-1"); err != nil || !ok {
		t.Fatalf("explicit tx-1: ok=%v err=%v", ok, err)
	}
	txn := cl.Submit(ctx(t), "")
	if ok, err := txn.Wait(ctx(t)); err != nil || !ok {
		t.Fatalf("auto ID %s: ok=%v err=%v", txn.TxID, ok, err)
	}
	if txn.TxID != "c3-1" {
		t.Fatalf("auto ID %q, want c3-1", txn.TxID)
	}
	// Each resource ran both transactions: the auto-ID one was not
	// answered from an outcome cache.
	waitApplied(t, cl, "tx-1", txn.TxID)
	for i, cr := range crs {
		if cr.commits.Load() != 2 || cr.aborts.Load() != 0 {
			t.Errorf("resource %d: commits=%d aborts=%d, want 2 and 0", i, cr.commits.Load(), cr.aborts.Load())
		}
	}
}

// TestSubmitRoundRobinCoordinators: a Cluster's submissions spread evenly
// over its peers. 4n bare submissions with allocated IDs send exactly n
// stage+go envelopes to each peer — allocating an ID, like a query, takes
// nothing from the round-robin, and a bare commit starts on the stage+go a
// footprint rides.
func TestSubmitRoundRobinCoordinators(t *testing.T) {
	t.Parallel()
	const n = 4
	cl, err := NewCluster(yesResources(n), Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var mu sync.Mutex
	gos := make(map[core.ProcessID]int)
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		if e.Path == stageGoPath {
			mu.Lock()
			gos[e.To]++
			mu.Unlock()
		}
		return false
	}})
	txns := make([]*Txn, 4*n)
	for i := range txns {
		txns[i] = cl.Submit(ctx(t), "")
	}
	for _, x := range txns {
		if _, err := x.Wait(ctx(t)); err != nil {
			t.Fatalf("%s: %v", x.TxID, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for p := core.ProcessID(1); p <= n; p++ {
		if gos[p] != n {
			t.Errorf("%v coordinated %d of %d submissions, want %d (all: %v)", p, gos[p], 4*n, n, gos)
		}
	}
}

// TestNilContextDefaults: Submit(nil, ...) used to panic in the dispatcher's
// ctx.Done() select; a nil ctx now defaults to context.Background() on both
// entry points.
func TestNilContextDefaults(t *testing.T) {
	t.Parallel()
	rs, _ := resources(true, true)
	cl, err := NewCluster(rs, Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	txn := cl.Submit(nil, "") //nolint:staticcheck // deliberately nil
	if ok, err := txn.Wait(ctx(t)); err != nil || !ok {
		t.Fatalf("Submit(nil): ok=%v err=%v", ok, err)
	}
	if ok, err := cl.Commit(nil, ""); err != nil || !ok { //nolint:staticcheck
		t.Fatalf("Commit(nil): ok=%v err=%v", ok, err)
	}
}

type straggler struct{}

func (straggler) Kind() string { return "STRAGGLER" }

var _ core.Message = straggler{}

// TestPeerRetiresDecidedInstances: a peer's state for a transaction ends
// with its decision — once the local apply returned, the record is gone and
// the outcome cached, with no grace to wait out. Wait still answers from the
// cache and stragglers are dropped, on TCP and on a Cluster's mesh peers
// alike.
func TestPeerRetiresDecidedInstances(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	rs, _ := resources(true, true, true)
	tcp := startPeers(t, rs, opts)
	if ok, err := tcp[0].Commit(ctx(t), "retire-tx"); err != nil || !ok {
		t.Fatalf("tcp: ok=%v err=%v", ok, err)
	}
	rs, _ = resources(true, true, true)
	cl, err := NewCluster(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if ok, err := cl.Commit(ctx(t), "retire-tx"); err != nil || !ok {
		t.Fatalf("mesh: ok=%v err=%v", ok, err)
	}

	for _, p := range append(tcp, cl.peers...) {
		// A commit answers after its coordinator's apply; each peer's Wait
		// returns after its own.
		if okW, err := p.Wait(ctx(t), "retire-tx"); err != nil || !okW {
			t.Fatalf("%v: ok=%v err=%v", p.id, okW, err)
		}
		p.mu.Lock()
		_, cached := p.decided.get("retire-tx")
		left := len(p.txns)
		p.mu.Unlock()
		if left != 0 || !cached {
			t.Fatalf("peer %v right after its apply: %d records, outcome cached %v", p.id, left, cached)
		}
		// Wait answers from the cache, and neither it nor a straggler
		// resurrects or buffers anything.
		if okC, err := p.Wait(ctx(t), "retire-tx"); err != nil || !okC {
			t.Fatalf("peer %v cached outcome: ok=%v err=%v", p.id, okC, err)
		}
		p.deliver(live.Envelope{TxID: "retire-tx", From: 2, To: p.id, Msg: straggler{}})
		p.mu.Lock()
		left = len(p.txns)
		p.mu.Unlock()
		if left != 0 {
			t.Fatalf("peer %v holds %d records after retirement", p.id, left)
		}
	}
}

// TestTxnOnResolve: a hook set before the future resolves gets the outcome
// before Done closes; one set after it runs at once, before OnResolve
// returns.
func TestTxnOnResolve(t *testing.T) {
	t.Parallel()
	x, resolve := UnresolvedTxn("hooked")
	ran := false
	x.OnResolve(func(committed bool, err error) {
		select {
		case <-x.Done():
			t.Error("the hook ran after Done closed")
		default:
		}
		if !committed || err != nil {
			t.Errorf("the hook got (%v, %v), want (true, nil)", committed, err)
		}
		ran = true
	})
	resolve(true, nil)
	if !ran {
		t.Fatal("the hook never ran")
	}

	y, resolveY := UnresolvedTxn("resolved")
	resolveY(true, nil)
	late := false
	y.OnResolve(func(committed bool, err error) { late = committed && err == nil })
	if !late {
		t.Fatal("a hook set on a resolved future did not run at once with its outcome")
	}
}
