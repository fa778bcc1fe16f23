package commit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/wire"
)

// fakeFootprint is the hosted test resource's footprint and query message
// (test wire ID block >= 240).
type fakeFootprint struct {
	Payload string
}

// Kind implements core.Message.
func (fakeFootprint) Kind() string { return "FAKEFP" }

// WireID implements core.Wire.
func (fakeFootprint) WireID() uint16 { return 250 }

// MarshalWire implements core.Wire.
func (m fakeFootprint) MarshalWire(b []byte) []byte { return wire.AppendString(b, m.Payload) }

// UnmarshalWire implements core.Wire.
func (fakeFootprint) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return fakeFootprint{Payload: d.String()}, d.Err()
}

func init() { live.RegisterWire(fakeFootprint{}) }

// hostedFake is a HostedResource recording everything done to it.
type hostedFake struct {
	mu        sync.Mutex
	refuse    bool // refuse every stage
	staged    map[string]string
	history   map[string]string // every payload ever staged (survives commit)
	prepared  map[string]string // per Prepare call, what was staged at that moment
	committed []string
	aborted   []string
}

func newHostedFake() *hostedFake {
	return &hostedFake{staged: make(map[string]string), history: make(map[string]string),
		prepared: make(map[string]string)}
}

// conflictPayload is the footprint a hostedFake votes no on.
const conflictPayload = "conflict"

func (h *hostedFake) Prepare(txID string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.prepared[txID] = h.staged[txID]
	return h.staged[txID] != conflictPayload
}

// preparedWith reports whether Prepare ran for txID, and on which payload.
func (h *hostedFake) preparedWith(txID string) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	payload, ok := h.prepared[txID]
	return payload, ok
}

// count returns how often txID appears in list.
func (h *hostedFake) count(list func(*hostedFake) []string, txID string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, id := range list(h) {
		if id == txID {
			n++
		}
	}
	return n
}

func (h *hostedFake) Commit(txID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.committed = append(h.committed, txID)
	delete(h.staged, txID)
}

func (h *hostedFake) Abort(txID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.aborted = append(h.aborted, txID)
	delete(h.staged, txID)
}

func (h *hostedFake) Stage(txID string, m Message) error {
	fp, ok := m.(fakeFootprint)
	if !ok {
		return fmt.Errorf("unexpected footprint %T", m)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.refuse {
		return fmt.Errorf("staging refused")
	}
	h.staged[txID] = fp.Payload
	h.history[txID] = fp.Payload
	return nil
}

func (h *hostedFake) Query(m Message) (Message, error) {
	fp, ok := m.(fakeFootprint)
	if !ok {
		return nil, fmt.Errorf("unexpected query %T", m)
	}
	return fakeFootprint{Payload: fp.Payload + "-reply"}, nil
}

func (h *hostedFake) has(list func(*hostedFake) []string, txID string) bool {
	return h.count(list, txID) > 0
}

func committedList(h *hostedFake) []string { return h.committed }
func abortedList(h *hostedFake) []string   { return h.aborted }

// hostedDeployment boots n peers each hosting a fresh hostedFake, plus one
// client.
func hostedDeployment(t *testing.T, n int, opts Options) ([]*Peer, []*hostedFake, *Client) {
	t.Helper()
	addrs := reserveAddrs(t, n)
	peers := make([]*Peer, n)
	fakes := make([]*hostedFake, n)
	for i := 1; i <= n; i++ {
		fakes[i-1] = newHostedFake()
		p, err := NewPeer(i, addrs, fakes[i-1], opts)
		if err != nil {
			t.Fatal(err)
		}
		peers[i-1] = p
		t.Cleanup(p.Close)
	}
	c, err := NewClient(n+1, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return peers, fakes, c
}

// meshDeployment is hostedDeployment on a Cluster: n peers on its mesh, each
// hosting a fresh hostedFake, and one client attached by Cluster.NewClient.
func meshDeployment(t *testing.T, n int, opts Options) ([]*hostedFake, *Client) {
	t.Helper()
	fakes := make([]*hostedFake, n)
	rs := make([]Resource, n)
	for i := range fakes {
		fakes[i] = newHostedFake()
		rs[i] = fakes[i]
	}
	cl, err := NewCluster(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := cl.NewClient(n + 2) // n+1 is the cluster's own client
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close) // before the cluster's: cleanups run last-in first
	return fakes, c
}

// onBothTransports runs test, in parallel subtests, against a client of n
// hosted peers over TCP and against one on a Cluster's mesh.
func onBothTransports(t *testing.T, n int, opts Options, test func(t *testing.T, fakes []*hostedFake, c *Client)) {
	t.Run("tcp", func(t *testing.T) {
		t.Parallel()
		_, fakes, c := hostedDeployment(t, n, opts)
		test(t, fakes, c)
	})
	t.Run("mesh", func(t *testing.T) {
		t.Parallel()
		fakes, c := meshDeployment(t, n, opts)
		test(t, fakes, c)
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientStageAndCommit: a transaction with a slice at every peer, shipped
// by stage+go, stages each peer's own payload and commits everywhere, from a
// TCP client and from a Cluster's mesh client alike.
func TestClientStageAndCommit(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	onBothTransports(t, 3, opts, func(t *testing.T, fakes []*hostedFake, c *Client) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()

		// An indulgent protocol may legally abort an all-yes transaction when
		// scheduling delay violates its timing bound, so retry with a fresh ID.
		var txID string
		committed := false
		for attempt := 0; attempt < 4 && !committed; attempt++ {
			txID = fmt.Sprintf("client-tx-%d", attempt)
			slices := make(map[int]Message)
			for i := 1; i <= 3; i++ {
				slices[i] = fakeFootprint{Payload: fmt.Sprintf("fp-%d", i)}
			}
			txn, err := c.StageGoAll(ctx, txID, 1, slices)
			if err != nil {
				t.Fatal(err)
			}
			if committed, err = txn.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if !committed {
			t.Fatal("all-yes transaction aborted on every attempt")
		}
		// Every peer decides on its own; the commit callback may trail the
		// client's result slightly.
		for i, f := range fakes {
			f := f
			waitFor(t, fmt.Sprintf("P%d commit callback", i+1), func() bool {
				return f.has(committedList, txID)
			})
			f.mu.Lock()
			got := f.history[txID]
			f.mu.Unlock()
			if want := fmt.Sprintf("fp-%d", i+1); got != want {
				t.Fatalf("P%d staged payload = %q, want %q", i+1, got, want)
			}
		}
	})
}

// TestClientQuery: a query reaches the hosted resource and its answer comes
// back, over TCP and over a Cluster's mesh.
func TestClientQuery(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	onBothTransports(t, 3, opts, func(t *testing.T, _ []*hostedFake, c *Client) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()

		reply, err := c.Query(ctx, 2, fakeFootprint{Payload: "ping"})
		if err != nil {
			t.Fatal(err)
		}
		fp, ok := reply.(fakeFootprint)
		if !ok || fp.Payload != "ping-reply" {
			t.Fatalf("reply = %#v, want ping-reply", reply)
		}
	})
}

// TestClientFirstQueryOneRoundTrip: a peer answers on the connection the
// request came in on, so nothing travels ahead of a fresh client's first
// request that it could overtake: on links that delay every envelope on its
// own, the first query costs one round trip.
func TestClientFirstQueryOneRoundTrip(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond} // a query expires after 800ms
	peers, _, c := hostedDeployment(t, 3, opts)
	const oneWay, jitter = 50 * time.Millisecond, 100 * time.Millisecond
	shaper := live.LinkShaper{Delay: live.Jitter(oneWay, jitter, 1)}
	c.tr.(*live.TCP).SetShaper(shaper)
	peers[1].tr.(*live.TCP).SetShaper(shaper)

	start := time.Now()
	reply, err := c.Query(ctx(t), 2, fakeFootprint{Payload: "early"})
	took := time.Since(start)
	if err != nil {
		t.Fatalf("the first query: %v", err)
	}
	if fp, ok := reply.(fakeFootprint); !ok || fp.Payload != "early-reply" {
		t.Fatalf("reply = %#v, want early-reply", reply)
	}
	if took < 2*oneWay || took > 2*(oneWay+jitter)+100*time.Millisecond {
		t.Fatalf("answered after %v, want one round trip of %v to %v", took, 2*oneWay, 2*(oneWay+jitter))
	}
}

// TestClientReopenedSameID: a client that closed and came back under its ID
// is answered on its new connection.
func TestClientReopenedSameID(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	peers, _, first := hostedDeployment(t, 3, opts)
	addrs := make([]string, len(peers))
	for i, p := range peers {
		addrs[i] = p.Addr()
	}
	ping := func(c *Client) {
		t.Helper()
		reply, err := c.Query(ctx(t), 2, fakeFootprint{Payload: "ping"})
		if fp, ok := reply.(fakeFootprint); err != nil || !ok || fp.Payload != "ping-reply" {
			t.Fatalf("reply = %#v, err = %v", reply, err)
		}
	}
	ping(first)
	first.Close()
	for life := 0; life < 3; life++ {
		c, err := NewClient(len(addrs)+1, addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		ping(c)
		c.Close()
	}
}

// TestClientLateResultFindsConnection: a client whose first and only message
// is a bare stage+go — what the repository benchmark sends — gets the
// coordinator's result on the connection the stage+go opened, however late
// it leaves: the coordinator's apply, which the result follows, is held until
// the test has seen the transaction still unresolved.
func TestClientLateResultFindsConnection(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	addrs := reserveAddrs(t, 3)
	applying, gate := make(chan struct{}), make(chan struct{})
	var release sync.Once
	t.Cleanup(func() { release.Do(func() { close(gate) }) })
	for i := 1; i <= 3; i++ {
		var res Resource = ResourceFunc{}
		if i == 2 {
			res = ResourceFunc{CommitFn: func(string) { close(applying); <-gate }}
		}
		p, err := NewPeer(i, addrs, res, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
	}
	c, err := NewClient(4, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	txn := c.SubmitAt(ctx(t), "", 2)
	select {
	case <-applying:
	case <-txn.Done():
		t.Fatalf("first-contact go resolved (committed=%v err=%v) before its coordinator applied", txn.Committed(), txn.Err())
	case <-time.After(10 * time.Second):
		t.Fatal("the coordinator never applied a commit")
	}
	time.Sleep(4 * opts.Timeout)
	select {
	case <-txn.Done():
		t.Fatalf("resolved (committed=%v err=%v) while the coordinator's apply was held", txn.Committed(), txn.Err())
	default:
	}
	release.Do(func() { close(gate) })
	if ok, err := txn.Wait(ctx(t)); !ok || err != nil {
		t.Fatalf("first-contact go: committed=%v err=%v", ok, err)
	}
}

// TestClientDeadCoordinatorResolves: a stage+go sent to a crashed coordinator
// must resolve the future with an error — never hang.
func TestClientDeadCoordinatorResolves(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 5 * time.Millisecond}
	peers, _, c := hostedDeployment(t, 3, opts)
	peers[0].Close()

	txn := c.SubmitAt(context.Background(), "doomed-tx", 1)
	select {
	case <-txn.Done():
		if txn.Err() == nil {
			t.Fatalf("dead coordinator: committed=%v with nil error", txn.Committed())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("future never resolved against a dead coordinator")
	}
}

// TestUndecidableCommitBoundByClient: a commit that cannot terminate has one
// bound, the client's. Every envelope of the transaction but its stage+go is
// dropped, so the coordinator prepares and never hears from the others, and
// INBAC's consensus has no majority to decide with. The future resolves with
// context.DeadlineExceeded, no sooner than coordinateUnits after the submit,
// and the coordinator sent no result for it meanwhile: a peer keeps no bound
// of its own.
func TestUndecidableCommitBoundByClient(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 2 * time.Millisecond}
	cl, err := NewCluster(yesResources(3), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const txID = "undecidable"
	var results atomic.Int32
	cl.Mesh().SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		if e.TxID != txID {
			return false
		}
		if e.Path == resultPath {
			results.Add(1)
		}
		return e.Path != stageGoPath
	}})
	start := time.Now()
	txn := cl.Submit(context.Background(), txID)
	select {
	case <-txn.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the future never resolved")
	}
	elapsed, sent := time.Since(start), results.Load()
	if err := txn.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded from the client's bound", err)
	}
	if bound := coordinateUnits * opts.Timeout; elapsed < bound {
		t.Errorf("resolved %v after the submit, before the %v bound", elapsed, bound)
	}
	if sent != 0 {
		t.Errorf("the coordinator sent %d results before the future resolved, want none", sent)
	}
}
