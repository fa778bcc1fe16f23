package commit

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/live"
)

// countingResource tracks callback invocations.
type countingResource struct {
	vote    bool
	commits atomic.Int32
	aborts  atomic.Int32
}

func (r *countingResource) Prepare(string) bool { return r.vote }
func (r *countingResource) Commit(string)       { r.commits.Add(1) }
func (r *countingResource) Abort(string)        { r.aborts.Add(1) }

func resources(votes ...bool) ([]Resource, []*countingResource) {
	rs := make([]Resource, len(votes))
	crs := make([]*countingResource, len(votes))
	for i, v := range votes {
		cr := &countingResource{vote: v}
		crs[i] = cr
		rs[i] = cr
	}
	return rs, crs
}

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return c
}

// waitApplied waits until every peer of cl has applied each txID's
// decision: a Cluster's commit answers once its coordinator applied, and
// the others apply on their own.
func waitApplied(t *testing.T, cl *Cluster, txIDs ...string) {
	t.Helper()
	c := ctx(t)
	for _, txID := range txIDs {
		for _, p := range cl.peers {
			if _, err := p.Wait(c, txID); err != nil {
				t.Fatalf("%v applying %s: %v", p.id, txID, err)
			}
		}
	}
}

func TestClusterCommitAllProtocols(t *testing.T) {
	t.Parallel()
	for _, name := range Protocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rs, crs := resources(true, true, true)
			cl, err := NewCluster(rs, Options{Protocol: Protocol(name), F: 1, Timeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ok, err := cl.Commit(ctx(t), "tx-live-1")
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("all-yes transaction must commit")
			}
			waitApplied(t, cl, "tx-live-1")
			for i, cr := range crs {
				if cr.commits.Load() != 1 || cr.aborts.Load() != 0 {
					t.Errorf("resource %d: commits=%d aborts=%d", i, cr.commits.Load(), cr.aborts.Load())
				}
			}
		})
	}
}

func TestClusterAbortAllProtocols(t *testing.T) {
	t.Parallel()
	for _, name := range Protocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rs, crs := resources(true, false, true)
			cl, err := NewCluster(rs, Options{Protocol: Protocol(name), F: 1, Timeout: 50 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ok, err := cl.Commit(ctx(t), "tx-live-abort")
			if err != nil {
				t.Fatal(err)
			}
			// 0NBAC's cell (AT, AT) gives up validity: under a real-time
			// timing violation (CPU-starved test runner) the silent fast
			// path may legitimately commit over a 0 vote. Everything else
			// must abort; 0NBAC must merely keep all members consistent.
			if ok && name != "0nbac" {
				t.Fatalf("a no vote must abort")
			}
			waitApplied(t, cl, "tx-live-abort")
			for i, cr := range crs {
				total := cr.aborts.Load() + cr.commits.Load()
				if total != 1 {
					t.Errorf("resource %d: commits=%d aborts=%d", i, cr.commits.Load(), cr.aborts.Load())
				}
				if !ok && cr.aborts.Load() != 1 {
					t.Errorf("resource %d: expected abort callback", i)
				}
			}
		})
	}
}

func TestClusterSequentialTransactions(t *testing.T) {
	t.Parallel()
	rs, crs := resources(true, true, true, true)
	cl, err := NewCluster(rs, Options{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		ok, err := cl.Commit(ctx(t), fmt.Sprintf("seq-%d", i))
		if err != nil || !ok {
			t.Fatalf("tx %d: ok=%v err=%v", i, ok, err)
		}
		waitApplied(t, cl, fmt.Sprintf("seq-%d", i))
	}
	for i, cr := range crs {
		if cr.commits.Load() != 5 {
			t.Fatalf("resource %d: expected 5 commits, got %d", i, cr.commits.Load())
		}
	}
}

// TestClusterINBACWithJitter: INBAC over a network with latency close to the
// timeout unit — indulgence means correctness survives even if the bound is
// occasionally violated.
func TestClusterINBACWithJitter(t *testing.T) {
	t.Parallel()
	rs, _ := resources(true, true, true, true, true)
	cl, err := NewCluster(rs, Options{Protocol: INBAC, F: 2, Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Mesh().SetShaper(live.LinkShaper{Delay: live.Jitter(time.Millisecond, 25*time.Millisecond, 7)})
	for i := 0; i < 3; i++ {
		if _, err := cl.Commit(ctx(t), fmt.Sprintf("jitter-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterINBACSurvivesPartitionedMember: one member is unreachable; an
// indulgent protocol must still terminate (F=2 > 1 member down, majority
// alive) — the scenario where 2PC would block forever. The commit answers
// with its coordinator's decision, which every reachable member applied.
func TestClusterINBACSurvivesPartitionedMember(t *testing.T) {
	t.Parallel()
	rs, crs := resources(true, true, true, true, true)
	cl, err := NewCluster(rs, Options{Protocol: INBAC, F: 2, Timeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var partitioned atomic.Bool // P5's instance outlives the partition, so heal it race-free
	partitioned.Store(true)
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		return partitioned.Load() && (e.To == 5 || e.From == 5)
	}})

	// P1 coordinates; P5 cannot decide, and the four reachable members
	// decide and apply on their own.
	want, err := cl.client.SubmitAt(ctx(t), "partitioned", 1).Wait(ctx(t))
	if err != nil {
		t.Fatalf("P1 must have decided despite the partition: %v", err)
	}
	for i, p := range cl.peers[:4] {
		if got, err := p.Wait(ctx(t), "partitioned"); err != nil || got != want {
			t.Fatalf("P%d: committed=%v err=%v, P1 answered committed=%v", i+1, got, err, want)
		}
	}
	for i, cr := range crs[:4] {
		if got := cr.commits.Load() == 1; got != want || cr.commits.Load()+cr.aborts.Load() != 1 {
			t.Errorf("resource %d: commits=%d aborts=%d, P1 committed=%v", i, cr.commits.Load(), cr.aborts.Load(), want)
		}
	}

	partitioned.Store(false)
	ok, err := cl.Commit(ctx(t), "healed")
	if err != nil || !ok {
		t.Fatalf("after healing: ok=%v err=%v", ok, err)
	}
}

// TestStragglerLearnsOutcome: a member cut off while the others decided —
// and with their applies retired the transaction — has nobody left to run
// the protocol with. When a late message of its reaches a retired peer, the
// peer answers with the outcome, and the straggler decides that — applying
// it like any decision of its own.
func TestStragglerLearnsOutcome(t *testing.T) {
	t.Parallel()
	rs, crs := resources(true, true, true)
	cl, err := NewCluster(rs, Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var partitioned atomic.Bool
	partitioned.Store(true)
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		return partitioned.Load() && (e.To == 3 || e.From == 3)
	}})
	// P1 coordinates and answers once it applied, that is, retired; P2
	// decides with it, and P3 cannot.
	want, err := cl.client.SubmitAt(ctx(t), "cut-off", 1).Wait(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	p1, p3 := cl.peers[0], cl.peers[2]
	if got, err := cl.peers[1].Wait(ctx(t), "cut-off"); err != nil || got != want {
		t.Fatalf("P2: committed=%v err=%v, P1 answered committed=%v", got, err, want)
	}
	for i, cr := range crs[:2] {
		if cr.commits.Load()+cr.aborts.Load() != 1 || (cr.commits.Load() == 1) != want {
			t.Errorf("P%d's resource: commits=%d aborts=%d, want the one callback for committed=%v",
				i+1, cr.commits.Load(), cr.aborts.Load(), want)
		}
	}

	// P3's messages were lost, not late, so stand in for the late one.
	partitioned.Store(false)
	p1.deliver(live.Envelope{TxID: "cut-off", From: 3, To: 1, Msg: straggler{}})
	if got, err := p3.Wait(ctx(t), "cut-off"); err != nil || got != want {
		t.Fatalf("straggler P3: committed=%v err=%v, P1 decided committed=%v", got, err, want)
	}
	if cr := crs[2]; cr.commits.Load()+cr.aborts.Load() != 1 || (cr.commits.Load() == 1) != want {
		t.Errorf("P3's resource: commits=%d aborts=%d, want the one callback for committed=%v",
			cr.commits.Load(), cr.aborts.Load(), want)
	}
}

func TestOptionsValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewCluster(nil, Options{}); err == nil {
		t.Error("0 participants must fail")
	}
	rs, _ := resources(true, true)
	if _, err := NewCluster(rs, Options{F: 5}); err == nil {
		t.Error("F > n-1 must fail")
	}
	if _, err := NewCluster(rs, Options{Protocol: "bogus"}); err == nil {
		t.Error("unknown protocol must fail")
	}
	if len(Protocols()) != 13 {
		t.Errorf("want 13 protocols, got %d", len(Protocols()))
	}
}

func TestResourceFuncDefaults(t *testing.T) {
	t.Parallel()
	var r Resource = ResourceFunc{}
	if !r.Prepare("x") {
		t.Error("default Prepare must vote yes")
	}
	r.Commit("x")
	r.Abort("x")

	var committed sync.Once
	var hit bool
	r = ResourceFunc{CommitFn: func(string) { committed.Do(func() { hit = true }) }}
	r.Commit("x")
	if !hit {
		t.Error("CommitFn not invoked")
	}
}

func TestSimulateFacade(t *testing.T) {
	t.Parallel()
	// Nice execution of INBAC: the Table 5 row, programmatically.
	rep, err := Simulate(INBAC, Scenario{N: 5, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Committed || !rep.SolvedNBAC {
		t.Fatalf("%+v", rep)
	}
	if rep.Messages != 2*2*5 || rep.Delays != 2 {
		t.Fatalf("INBAC n=5 f=2 must measure 2fn=20 messages / 2 delays: %+v", rep)
	}

	// 2PC blocks when its coordinator crashes.
	rep, err = Simulate(TwoPC, Scenario{N: 5, CrashAtUnit: map[int]int{1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided {
		t.Fatalf("2PC must block: %+v", rep)
	}

	// INBAC does not.
	rep, err = Simulate(INBAC, Scenario{N: 5, F: 2, CrashAtUnit: map[int]int{1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Decided || !rep.Agreement {
		t.Fatalf("INBAC must terminate: %+v", rep)
	}

	// Eventually synchronous network: indulgence.
	rep, err = Simulate(INBAC, Scenario{N: 4, F: 1, SlowUntilUnit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SolvedNBAC {
		t.Fatalf("INBAC is indulgent: %+v", rep)
	}

	// Validation errors.
	if _, err := Simulate("bogus", Scenario{N: 3}); err == nil {
		t.Error("unknown protocol must fail")
	}
	if _, err := Simulate(INBAC, Scenario{N: 1}); err == nil {
		t.Error("too-small n must fail")
	}
	if _, err := Simulate(INBAC, Scenario{N: 3, Votes: []bool{true}}); err == nil {
		t.Error("vote length mismatch must fail")
	}
}

func TestPeerTCPCommit(t *testing.T) {
	t.Parallel()
	rs, crs := resources(true, true, true)
	peers := startPeers(t, rs, Options{Protocol: INBAC, F: 1, Timeout: 60 * time.Millisecond})

	ok, err := peers[0].Commit(ctx(t), "tcp-tx-1")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("must commit")
	}
	// Every peer fires its own callback, and has by the time its Wait
	// returns.
	for i, p := range peers {
		if okF, err := p.Wait(ctx(t), "tcp-tx-1"); err != nil || !okF {
			t.Fatalf("peer %d: ok=%v err=%v", i+1, okF, err)
		}
		if crs[i].commits.Load() != 1 {
			t.Fatalf("peer %d answered before applying the commit", i+1)
		}
	}
}

func TestPeerTCPAbortVote(t *testing.T) {
	t.Parallel()
	rs, _ := resources(true, false, true) // P2 votes no
	peers := startPeers(t, rs, Options{Protocol: INBAC, F: 1, Timeout: 60 * time.Millisecond})
	ok, err := peers[2].Commit(ctx(t), "tcp-tx-abort")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("must abort")
	}
}
