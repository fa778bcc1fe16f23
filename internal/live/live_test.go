package live

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// echoMsg is the test protocol's message.
type echoMsg struct{ V core.Value }

func (echoMsg) Kind() string { return "ECHO" }

// Wire methods (test ID block >= 240).
func (echoMsg) WireID() uint16 { return 240 }

func (m echoMsg) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }

func (echoMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return echoMsg{V: core.Value(d.Uvarint())}, d.Err()
}

func init() { RegisterWire(echoMsg{}) }

// echo broadcasts its vote and decides the AND of everything seen at its
// U-timer — a minimal protocol exercising Send, timers, and Decide.
type echo struct {
	env core.Env
	and core.Value
}

func (p *echo) Init(env core.Env) { p.env = env; p.and = core.Commit }
func (p *echo) Propose(v core.Value) {
	p.and = p.and.And(v)
	for i := 1; i <= p.env.N(); i++ {
		p.env.Send(core.ProcessID(i), echoMsg{V: v})
	}
	p.env.SetTimerAt(p.env.U(), 1)
}
func (p *echo) Deliver(from core.ProcessID, m core.Message) { p.and = p.and.And(m.(echoMsg).V) }
func (p *echo) Timeout(int)                                 { p.env.Decide(p.and) }

func runMeshInstances(t *testing.T, n int, votes []core.Value) []*Instance {
	t.Helper()
	mesh := NewMesh()
	insts := make([]*Instance, n)
	for i := 1; i <= n; i++ {
		ep := mesh.Endpoint(core.ProcessID(i))
		inst := NewInstance(Config{
			ID: core.ProcessID(i), N: n, F: 1, U: 30, TxID: "t",
			New:  func(core.ProcessID) core.Module { return &echo{} },
			Send: ep.Send,
		})
		insts[i-1] = inst
		ep.SetHandler(inst.Deliver)
	}
	for i, inst := range insts {
		inst.Start(votes[i])
	}
	return insts
}

func TestMeshInstanceDecides(t *testing.T) {
	n := 4
	votes := []core.Value{1, 1, 1, 1}
	insts := runMeshInstances(t, n, votes)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, inst := range insts {
		v, err := inst.Wait(ctx)
		if err != nil || v != core.Commit {
			t.Fatalf("instance %d: v=%v err=%v", i+1, v, err)
		}
	}
}

func TestMeshAbortVote(t *testing.T) {
	votes := []core.Value{1, 0, 1}
	insts := runMeshInstances(t, 3, votes)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, inst := range insts {
		v, err := inst.Wait(ctx)
		if err != nil || v != core.Abort {
			t.Fatalf("instance %d: v=%v err=%v", i+1, v, err)
		}
	}
}

func TestInstancePreStartBuffering(t *testing.T) {
	mesh := NewMesh()
	ep := mesh.Endpoint(1)
	inst := NewInstance(Config{ID: 1, N: 1, F: 0, U: 10, TxID: "t",
		New:  func(core.ProcessID) core.Module { return &echo{} },
		Send: ep.Send})
	// Deliver before Start: must buffer, not panic.
	inst.Deliver(Envelope{TxID: "t", From: 1, To: 1, Msg: echoMsg{V: core.Abort}})
	inst.Start(core.Commit)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	v, err := inst.Wait(ctx)
	if err != nil || v != core.Abort {
		t.Fatalf("buffered pre-start message must count: v=%v err=%v", v, err)
	}
}

func TestInstanceWaitContextExpiry(t *testing.T) {
	inst := NewInstance(Config{ID: 1, N: 2, F: 1, U: 1000, TxID: "t",
		New:  func(core.ProcessID) core.Module { return &mute{} },
		Send: func(Envelope) error { return nil }})
	inst.Start(core.Commit)
	defer inst.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := inst.Wait(ctx); err == nil {
		t.Fatal("expected context expiry")
	}
}

// mute never decides.
type mute struct{}

func (*mute) Init(core.Env)                        {}
func (*mute) Propose(core.Value)                   {}
func (*mute) Deliver(core.ProcessID, core.Message) {}
func (*mute) Timeout(int)                          {}

func TestMeshDropAndLatency(t *testing.T) {
	mesh := NewMesh()
	var mu sync.Mutex
	var got []core.ProcessID
	for i := 1; i <= 3; i++ {
		id := core.ProcessID(i)
		mesh.Endpoint(id).SetHandler(func(e Envelope) {
			mu.Lock()
			got = append(got, e.To)
			mu.Unlock()
		})
	}
	mesh.SetShaper(LinkShaper{Drop: func(e Envelope) bool { return e.To == 3 }})
	ep := mesh.Endpoint(1)
	for i := 2; i <= 3; i++ {
		if err := ep.Send(Envelope{From: 1, To: core.ProcessID(i), Msg: echoMsg{}}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("expected only P2 delivery, got %v", got)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	// Bind P1 first to learn its port, then P2 with the full list.
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[0] = t1.Addr()
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	// P1 only dials, so it can know P2's real port via a fresh transport
	// address map: rebuild P1 with the final list.
	t1.Close()
	t1, err = NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	recv := make(chan Envelope, 1)
	t2.SetHandler(func(e Envelope) { recv <- e })
	if err := t1.Send(Envelope{TxID: "x", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-recv:
		if e.TxID != "x" || e.Msg.(echoMsg).V != core.Commit {
			t.Fatalf("bad envelope %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for TCP delivery")
	}
}

func TestTCPSendToDeadPeerIsSilent(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:1"} // P2 unreachable
	tr, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(Envelope{From: 1, To: 2, Msg: echoMsg{}}); err != nil {
		t.Fatalf("unreachable peers must look crashed (silent), got %v", err)
	}
}

// TestTCPSendNeverWaitsForDial: Send to a peer whose listener is closed
// returns at once, every time — a protocol handler, and with it the process's
// timer goroutine, is the caller — and once the listener is back a later
// Send is delivered.
func TestTCPSendNeverWaitsForDial(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = t2.Addr()
	t2.Close() // the address is real, nobody listens
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	// A stall of the test's own goroutine (GC, a busy host) is not Send
	// waiting: three tries at a clean hundred.
	var slowest time.Duration
	for try := 0; try < 3; try++ {
		slowest = 0
		for i := 0; i < 100; i++ {
			start := time.Now()
			if err := t1.Send(Envelope{TxID: "down", From: 1, To: 2, Msg: echoMsg{}}); err != nil {
				t.Fatalf("send %d to a down peer must be silent, got %v", i, err)
			}
			slowest = max(slowest, time.Since(start))
		}
		if slowest < time.Millisecond {
			break
		}
	}
	if slowest >= time.Millisecond {
		t.Fatalf("a Send to a down peer took %v, want under 1ms", slowest)
	}

	t2, err = NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	recv := make(chan Envelope, 256)
	t2.SetHandler(func(e Envelope) {
		// Never block the read loop: up to 300 buffered "down"s and one "up"
		// per round arrive, and once the test returned nobody reads recv,
		// so a blocked handler would hang t2.Close. Each round sends
		// another "up", so a dropped one is sent again.
		select {
		case recv <- e:
		default:
		}
	})
	deadline := time.After(10 * time.Second)
	for {
		if err := t1.Send(Envelope{TxID: "up", From: 1, To: 2, Msg: echoMsg{}}); err != nil {
			t.Fatal(err)
		}
		select {
		case e := <-recv:
			if e.TxID == "up" {
				return
			}
			// "down": buffered while the dial was retried, and the listener
			// came back in time.
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatal("nothing delivered after the listener came back")
		}
	}
}

// TestTCPConcurrentFirstSendsDialOnce: however many senders find no
// connection at once, the destination is dialed once, and every envelope
// arrives, each sender's in its sending order.
func TestTCPConcurrentFirstSendsDialOnce(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	const senders, per = 64, 4
	recv := make(chan Envelope, senders*per)
	t2.SetHandler(func(e Envelope) { recv <- e })
	dials := mDials.Value()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				// The path carries the sender, the message its sequence number.
				e := Envelope{TxID: "first", From: 1, To: 2, Path: fmt.Sprint(g), Msg: echoMsg{V: core.Value(i)}}
				if err := t1.Send(e); err != nil {
					t.Errorf("send: %v", err)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	next := make(map[string]core.Value, senders)
	for got := 0; got < senders*per; got++ {
		select {
		case e := <-recv:
			if v := e.Msg.(echoMsg).V; v != next[e.Path] {
				t.Fatalf("sender %s: envelope %d arrived in place %d", e.Path, v, next[e.Path])
			}
			next[e.Path]++
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d envelopes arrived", got, senders*per)
		}
	}
	if d := mDials.Value() - dials; d != 1 {
		t.Fatalf("%d concurrent first sends dialed %d times, want 1", senders, d)
	}
}

// TestTCPPeerDiesMidStream: a peer that vanishes after traffic flowed must
// look crashed — every later send drops silently (no error, no panic), per
// the crash-failure model.
func TestTCPPeerDiesMidStream(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	recv := make(chan Envelope, 16)
	t2.SetHandler(func(e Envelope) { recv <- e })
	if err := t1.Send(Envelope{TxID: "a", From: 1, To: 2, Msg: echoMsg{}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("first send not delivered")
	}

	// Kill the peer, then keep sending: the writes land in a dead buffer
	// or fail on flush; either way Send must stay silent.
	t2.Close()
	for i := 0; i < 50; i++ {
		if err := t1.Send(Envelope{TxID: "b", From: 1, To: 2, Msg: echoMsg{}}); err != nil {
			t.Fatalf("send %d after peer death must be silent, got %v", i, err)
		}
	}
}

// TestTCPConcurrentSendsDuringPeerDeath hammers one connection from many
// goroutines while the peer dies mid-stream: the teardown (close of the
// flush-kick channel) must never race a sender into a panic.
func TestTCPConcurrentSendsDuringPeerDeath(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2.SetHandler(func(Envelope) {})

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if err := t1.Send(Envelope{From: 1, To: 2, Msg: echoMsg{}}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	t2.Close() // rip the peer out from under the senders
	wg.Wait()
}

// TestTCPBatchedSendsAllDelivered floods the transport from several
// goroutines: the flush-coalescing loop must deliver every envelope
// exactly once, in spite of batching, and each sender's envelopes in the
// order it sent them (the TxID carries a per-sender sequence): a flush
// that yields before it swaps must never reorder a connection.
func TestTCPBatchedSendsAllDelivered(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	const senders, per = 8, 250
	var mu sync.Mutex
	next := make([]int, senders) // next[g]: the sequence expected from sender g
	delivered := 0
	var bad []string
	t2.SetHandler(func(e Envelope) {
		mu.Lock()
		defer mu.Unlock()
		delivered++
		var g, i int
		if _, err := fmt.Sscanf(e.TxID, "t-%d-%d", &g, &i); err != nil || g < 0 || g >= senders {
			bad = append(bad, fmt.Sprintf("unexpected TxID %q", e.TxID))
			return
		}
		if i != next[g] {
			bad = append(bad, fmt.Sprintf("sender %d: got #%d, want #%d", g, i, next[g]))
		}
		next[g] = i + 1
	})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := Envelope{TxID: fmt.Sprintf("t-%d-%d", g, i), From: 1, To: 2, Msg: echoMsg{V: core.Commit}}
				if err := t1.Send(e); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := delivered
		mu.Unlock()
		if n >= senders*per || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bad) > 0 {
		t.Fatalf("%d envelopes out of order, lost or repeated; first: %s", len(bad), bad[0])
	}
	if delivered != senders*per {
		t.Fatalf("delivered %d envelopes, want %d", delivered, senders*per)
	}
}

// TestTCPBacklogCutIntoFrames: a receiver that stops reading lets the
// sender's backlog outgrow the reader's 8 MiB frame bound. The writer must
// cut it into frames below the bound at envelope boundaries, or the reader
// drops the connection and with it the envelopes: all 24 MiB arrive, in
// sending order, once the receiver reads again.
func TestTCPBacklogCutIntoFrames(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	const total, size = 384, 64 << 10 // 24 MiB of TxIDs
	gate := make(chan struct{})
	got := make(chan int, total)
	t2.SetHandler(func(e Envelope) {
		<-gate // the read loop stalls: the sender's backlog grows
		var i int
		fmt.Sscanf(e.TxID[size:], "%d", &i)
		got <- i
	})
	pad := strings.Repeat("x", size)
	for i := 0; i < total; i++ {
		if err := t1.Send(Envelope{TxID: fmt.Sprintf("%s%d", pad, i), From: 1, To: 2, Msg: echoMsg{V: core.Commit}}); err != nil {
			t.Error(err)
			break
		}
	}
	close(gate) // before any return: Close waits for the stalled read loop
	if t.Failed() {
		return
	}
	for want := 0; want < total; want++ {
		select {
		case i := <-got:
			if i != want {
				t.Fatalf("delivery %d carried #%d", want, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("delivery %d never came", want)
		}
	}
}

// BenchmarkTCPSend measures transport write throughput with the batched
// writer (envelopes/op on a loopback connection).
func BenchmarkTCPSend(b *testing.B) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer t1.Close()

	var n int64
	done := make(chan struct{})
	var closeOnce sync.Once
	t2.SetHandler(func(Envelope) {
		if atomic.AddInt64(&n, 1) >= int64(b.N) {
			closeOnce.Do(func() { close(done) })
		}
	})
	e := Envelope{TxID: "bench", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t1.Send(e); err != nil {
			b.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		b.Fatalf("delivered %d of %d", atomic.LoadInt64(&n), b.N)
	}
}

// BenchmarkTCPFanIn is one event readying many senders at once: each op
// releases 32 goroutines with one close, and each sends one envelope to the
// same peer, as the clients one burst of results woke do. envelopes/frame
// is how many of them one flush carried (32 at most: one writev for all).
func BenchmarkTCPFanIn(b *testing.B) {
	const fan = 32
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		b.Fatal(err)
	}
	defer t1.Close()
	got := make(chan struct{}, fan)
	t2.SetHandler(func(Envelope) { got <- struct{}{} })
	e := Envelope{TxID: "fan-in", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}
	lost := time.NewTimer(time.Hour)
	defer lost.Stop()
	wait := func(n int) {
		lost.Reset(30 * time.Second)
		for ; n > 0; n-- {
			select {
			case <-got:
			case <-lost.C:
				b.Fatal("envelopes never delivered")
			}
		}
	}
	if err := t1.Send(e); err != nil { // dial outside the measurement
		b.Fatal(err)
	}
	wait(1)

	frames0 := mFlushFrames.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gate := make(chan struct{})
		for g := 0; g < fan; g++ {
			go func() {
				<-gate
				if err := t1.Send(e); err != nil {
					b.Error(err)
				}
			}()
		}
		close(gate)
		wait(fan)
	}
	b.StopTimer()
	if frames := mFlushFrames.Value() - frames0; frames > 0 {
		b.ReportMetric(float64(fan*b.N)/float64(frames), "envelopes/frame")
	}
}

func TestJitterBounds(t *testing.T) {
	lat := Jitter(time.Millisecond, 4*time.Millisecond, 42)
	for i := 0; i < 100; i++ {
		d := lat(Envelope{})
		if d < time.Millisecond || d >= 5*time.Millisecond {
			t.Fatalf("latency %v out of [1ms, 5ms)", d)
		}
	}
}

func ExampleJitter() {
	lat := Jitter(time.Millisecond, 0, 1)
	fmt.Println(lat(Envelope{}))
	// Output: 1ms
}
