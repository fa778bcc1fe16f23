package commit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/wire"
)

// hopMsg is a query that hopFake peers pass along Route: the process at
// Route[At] gets it next, and every peer it reaches signs Trail (test wire
// ID block >= 240).
type hopMsg struct {
	Route []core.ProcessID
	At    int
	Trail string
}

// Kind implements core.Message.
func (hopMsg) Kind() string { return "FAKEHOP" }

// WireID implements core.Wire.
func (hopMsg) WireID() uint16 { return 251 }

// MarshalWire implements core.Wire.
func (m hopMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Route)))
	for _, p := range m.Route {
		b = wire.AppendUvarint(b, uint64(p))
	}
	b = wire.AppendInt(b, m.At)
	return wire.AppendString(b, m.Trail)
}

// UnmarshalWire implements core.Wire.
func (hopMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	var m hopMsg
	if n := d.Len(); n > 0 {
		m.Route = make([]core.ProcessID, n)
		for i := range m.Route {
			m.Route[i] = core.ProcessID(d.Uvarint())
		}
	}
	m.At = d.Int()
	m.Trail = d.String()
	return m, d.Err()
}

// Next implements Hop: 0 once the route has run out.
func (m hopMsg) Next() core.ProcessID {
	if m.At >= 0 && m.At < len(m.Route) {
		return m.Route[m.At]
	}
	return 0
}

func init() { live.RegisterWire(hopMsg{}) }

// hopFake is a hostedFake that signs a hopMsg and passes it on.
type hopFake struct {
	*hostedFake
	id core.ProcessID
}

func (h hopFake) Query(m Message) (Message, error) {
	hm, ok := m.(hopMsg)
	if !ok {
		return h.hostedFake.Query(m)
	}
	hm.Trail += fmt.Sprintf("P%d ", h.id)
	hm.At++
	return hm, nil
}

// hopDeployment boots n peers each hosting a hopFake, plus one client.
func hopDeployment(t *testing.T, n int, opts Options) ([]*Peer, *Client) {
	t.Helper()
	addrs := reserveAddrs(t, n)
	peers := make([]*Peer, n)
	for i := 1; i <= n; i++ {
		p, err := NewPeer(i, addrs, hopFake{newHostedFake(), core.ProcessID(i)}, opts)
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
	return peers, c
}

// TestQueryHopChain: a query P1 passes to P2, P2 back to P1 and P1 to the
// client is answered by P1, in one client round trip: only the client's
// links are slow, and the fastest of three tries is under 1.5 of their
// round trips. A chain that ends at a peer the client did not ask is not
// taken for the reply — the client files it under the peer it asked — and
// the query expires. Not parallel: it times round trips.
func TestQueryHopChain(t *testing.T) {
	const oneWay = 30 * time.Millisecond
	opts := Options{Protocol: INBAC, F: 1, Timeout: 10 * time.Millisecond} // a query expires after 320ms
	peers, c := hopDeployment(t, 3, opts)
	client := core.ProcessID(c.ID())
	c.tr.(*live.TCP).SetShaper(live.LinkShaper{Delay: func(live.Envelope) time.Duration { return oneWay }})
	peers[0].tr.(*live.TCP).SetShaper(live.LinkShaper{Delay: func(e live.Envelope) time.Duration {
		if e.To == client {
			return oneWay
		}
		return 0
	}})

	best := time.Hour
	for try := 0; try < 3; try++ {
		start := time.Now()
		reply, err := c.Query(ctx(t), 1, hopMsg{Route: []core.ProcessID{1, 2, 1, client}})
		best = min(best, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := reply.(hopMsg); !ok || m.Trail != "P1 P2 P1 " {
			t.Fatalf("reply = %#v, want the trail P1 P2 P1", reply)
		}
	}
	if best >= 3*oneWay {
		t.Fatalf("the chain took %v at best, want one %v client round trip (under 1.5)", best, 2*oneWay)
	}

	_, err := c.Query(ctx(t), 1, hopMsg{Route: []core.ProcessID{1, 2, client}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a chain ending at P2 for a query to P1: err = %v, want a deadline error", err)
	}
}

// heldAnswer is an answer a laterFake holds back: a Deferred that, awaited,
// files on awaited the function that hands it over.
type heldAnswer struct {
	Message
	awaited chan func()
}

// Await implements Deferred.
func (h heldAnswer) Await(answer func(Message)) {
	h.awaited <- func() { answer(h.Message) }
}

// laterFake is a hopFake that holds back every answer but the one to
// fakeFootprint{"now"}, until the test hands it over.
type laterFake struct {
	hopFake
	awaited chan func()
}

func (l laterFake) Query(m Message) (Message, error) {
	reply, err := l.hopFake.Query(m)
	if fp, ok := m.(fakeFootprint); err != nil || ok && fp.Payload == "now" {
		return reply, err
	}
	return heldAnswer{reply, l.awaited}, nil
}

// TestQueryAnsweredLater: a Query answer that is a Deferred reaches the
// client once the resource hands it over and not before, in one reply under
// the query's ID; a deferred Hop goes on as a ready one does, so a chain P1 →
// P2 (held) → P1 → client still costs the client one round trip; and a held
// query costs no goroutine. Not parallel: it times round trips and counts the
// process's goroutines.
func TestQueryAnsweredLater(t *testing.T) {
	const oneWay = 30 * time.Millisecond
	opts := Options{Protocol: INBAC, F: 1, Timeout: 50 * time.Millisecond} // a query expires after 1.6s
	awaited := make(chan func(), 1)
	addrs := reserveAddrs(t, 3)
	peers := make([]*Peer, 3)
	for i := 1; i <= 3; i++ {
		var r HostedResource = hopFake{newHostedFake(), core.ProcessID(i)}
		if i == 2 {
			r = laterFake{r.(hopFake), awaited}
		}
		p, err := NewPeer(i, addrs, r, opts)
		if err != nil {
			t.Fatal(err)
		}
		peers[i-1] = p
		t.Cleanup(p.Close)
	}
	c, err := NewClient(4, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client := core.ProcessID(c.ID())
	var mu sync.Mutex
	var replies []live.Envelope // every query reply the client received
	c.tr.SetHandler(func(e live.Envelope) {
		if e.Path == queryReplyPath {
			mu.Lock()
			replies = append(replies, e)
			mu.Unlock()
		}
		c.deliver(e)
	})
	repliesSoFar := func() []live.Envelope {
		mu.Lock()
		defer mu.Unlock()
		return append([]live.Envelope(nil), replies...)
	}
	type result struct {
		reply Message
		err   error
	}
	// ask starts a query and returns, once peer 2 holds its answer, the
	// function that hands the answer over and the channel the result comes on.
	ask := func(peer int, m Message) (func(), chan result) {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			reply, err := c.Query(ctx(t), peer, m)
			done <- result{reply, err}
		}()
		select {
		case release := <-awaited:
			return release, done
		case r := <-done:
			t.Fatalf("query to P%d answered %v, %v before P2 handed its answer over", peer, r.reply, r.err)
		}
		return nil, nil
	}
	chain := hopMsg{Route: []core.ProcessID{1, 2, 1, client}}

	// Warm-up: every connection the count could see being made exists
	// before it is taken.
	for _, q := range []struct {
		peer int
		m    Message
	}{{2, fakeFootprint{"x"}}, {1, chain}} {
		release, done := ask(q.peer, q.m)
		release()
		if r := <-done; r.err != nil {
			t.Fatalf("warm-up: %v", r.err)
		}
	}
	base := runtime.NumGoroutine()

	// A direct query: nothing before the answer is handed over, one reply
	// after, under the query's ID.
	before := len(repliesSoFar())
	release, done := ask(2, fakeFootprint{"x"})
	waitFor(t, "the goroutine count to settle", func() bool { return runtime.NumGoroutine() <= base+1 }) // +1: ask's
	c.mu.Lock()
	var id string
	for k := range c.replies {
		id = k.txID
	}
	c.mu.Unlock()
	if n := len(repliesSoFar()) - before; n != 0 {
		t.Fatalf("%d replies reached the client while P2 held the answer", n)
	}
	release()
	if r := <-done; r.err != nil || r.reply != (fakeFootprint{"x-reply"}) {
		t.Fatalf("held query: %v, %v; want x-reply", r.reply, r.err)
	}
	// A ready answer from P2 comes after any second copy of the held one on
	// the same connection.
	if _, err := c.Query(ctx(t), 2, fakeFootprint{"now"}); err != nil {
		t.Fatal(err)
	}
	got := repliesSoFar()[before:]
	if len(got) != 2 || got[0].TxID != id || got[0].From != 2 {
		t.Fatalf("replies after the release: %v, want one from P2 under %q, then the ready one", got, id)
	}

	// A held hop: the chain goes on from P2 once it is handed over, and the
	// client pays one round trip besides the wait. Only the client's links
	// are slow.
	c.tr.(*live.TCP).SetShaper(live.LinkShaper{Delay: func(live.Envelope) time.Duration { return oneWay }})
	peers[0].tr.(*live.TCP).SetShaper(live.LinkShaper{Delay: func(e live.Envelope) time.Duration {
		if e.To == client {
			return oneWay
		}
		return 0
	}})
	start := time.Now()
	release, done = ask(1, chain)
	heldAt := time.Now()
	waitFor(t, "the goroutine count to settle", func() bool { return runtime.NumGoroutine() <= base+1 })
	wait := time.Since(heldAt)
	release()
	r := <-done
	elapsed := time.Since(start) - wait
	if m, ok := r.reply.(hopMsg); r.err != nil || !ok || m.Trail != "P1 P2 P1 " {
		t.Fatalf("held chain: %#v, %v; want the trail P1 P2 P1", r.reply, r.err)
	}
	if elapsed >= 3*oneWay {
		t.Fatalf("the held chain took %v besides the wait, want one %v client round trip (under 1.5)", elapsed, 2*oneWay)
	}
}

// TestQueryHopDropped: an answer that names the peer holding it, or ID 0, is
// dropped — at the first peer or further down the chain. The client gets
// its deadline error, nothing panics, and no goroutine is left behind. Not
// parallel: it counts the process's goroutines.
func TestQueryHopDropped(t *testing.T) {
	opts := Options{Protocol: INBAC, F: 1, Timeout: 5 * time.Millisecond} // a query expires after 160ms
	_, c := hopDeployment(t, 3, opts)
	client := core.ProcessID(c.ID())
	// A whole chain first: every connection the count could see being made
	// exists before it is taken.
	if _, err := c.Query(ctx(t), 1, hopMsg{Route: []core.ProcessID{1, 2, 1, client}}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	base := runtime.NumGoroutine()
	for _, route := range [][]core.ProcessID{
		{1, 1, client},       // P1 names itself
		{1, 0},               // P1 names ID 0
		{1, 2, 2, client},    // P2 names itself
		{1, 2, 1, 0, client}, // P1 names ID 0 on the way back
	} {
		_, err := c.Query(ctx(t), 1, hopMsg{Route: route})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("route %v: err = %v, want a deadline error", route, err)
		}
	}
	waitFor(t, "the goroutine count to settle", func() bool { return runtime.NumGoroutine() <= base })
}

// TestQueryFuncOnce is QueryFunc's contract: done runs exactly once, with the
// reply; with context.DeadlineExceeded once the sweep finds the query 32 U
// old (and not before); with the closed-client error, for every outstanding
// query, before Close returns; and before QueryFunc returns for a peer out
// of range or a closed client.
func TestQueryFuncOnce(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 5 * time.Millisecond} // a query expires after 160ms
	peers, c := hopDeployment(t, 3, opts)
	client := core.ProcessID(c.ID())
	type call struct {
		reply Message
		err   error
		at    time.Time
	}
	// query sends m to peer and returns the channel its done calls go to,
	// and whether the first came before QueryFunc returned.
	query := func(c *Client, peer int, m Message) (<-chan call, bool) {
		calls := make(chan call, 2)
		c.QueryFunc(peer, m, func(reply Message, err error) { calls <- call{reply, err, time.Now()} })
		return calls, len(calls) > 0
	}
	// once waits for the first call and checks that no second one follows
	// within the sweep's period and then some.
	once := func(what string, calls <-chan call) call {
		t.Helper()
		var first call
		select {
		case first = <-calls:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: done never ran", what)
		}
		select {
		case again := <-calls:
			t.Fatalf("%s: done ran twice: %v, then %v", what, first.err, again.err)
		case <-time.After(16 * opts.Timeout):
		}
		return first
	}

	calls, _ := query(c, 2, fakeFootprint{"x"})
	if r := once("answered", calls); r.err != nil || r.reply != (fakeFootprint{"x-reply"}) {
		t.Fatalf("answered: %v, %v; want x-reply", r.reply, r.err)
	}

	sent := time.Now()
	calls, _ = query(c, 1, hopMsg{Route: []core.ProcessID{1, 1, client}}) // P1 drops it
	r := once("unanswered", calls)
	if !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("unanswered: err = %v, want a deadline error", r.err)
	}
	if took := r.at.Sub(sent); took < queryUnits*opts.Timeout {
		t.Fatalf("unanswered: failed after %v, before the %v bound", took, queryUnits*opts.Timeout)
	}

	for _, peer := range []int{0, 4} {
		calls, early := query(c, peer, fakeFootprint{"x"})
		if !early {
			t.Fatalf("peer %d: done had not run when QueryFunc returned", peer)
		}
		if r := once(fmt.Sprintf("peer %d", peer), calls); !errors.Is(r.err, ErrPeerID) {
			t.Fatalf("peer %d: err = %v, want ErrPeerID", peer, r.err)
		}
	}

	// A client of its own, so that Close finds queries outstanding.
	addrs := make([]string, len(peers))
	for i, p := range peers {
		addrs[i] = p.Addr()
	}
	c2, err := NewClient(len(addrs)+2, addrs, Options{Protocol: INBAC, F: 1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var outstanding []<-chan call
	for i := 0; i < 3; i++ {
		calls, _ := query(c2, 1, hopMsg{Route: []core.ProcessID{1, 0}}) // P1 drops it
		outstanding = append(outstanding, calls)
	}
	c2.Close()
	for i, calls := range outstanding {
		if len(calls) == 0 {
			t.Fatalf("query %d: done had not run when Close returned", i)
		}
		if r := once(fmt.Sprintf("query %d at Close", i), calls); !errors.Is(r.err, errClientClosed) {
			t.Fatalf("query %d at Close: err = %v, want the closed-client error", i, r.err)
		}
	}
	calls, early := query(c2, 1, fakeFootprint{"x"})
	if !early {
		t.Fatal("closed client: done had not run when QueryFunc returned")
	}
	if r := once("closed client", calls); !errors.Is(r.err, errClientClosed) {
		t.Fatalf("closed client: err = %v, want the closed-client error", r.err)
	}
}
