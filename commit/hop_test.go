package commit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	c.tcp.SetShaper(live.LinkShaper{Delay: func(live.Envelope) time.Duration { return oneWay }})
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
