package live

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"atomiccommit/internal/core"
)

// seqMsg is a test double delivered by reference (no wire form).
type seqMsg struct{ n int }

func (seqMsg) Kind() string { return "SEQ" }

// inboxLoops counts the goroutines draining an Inbox, over the whole process.
func inboxLoops() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "]).run(")
}

// TestMeshDeliveryFIFO: one destination's deliveries arrive in sending order,
// on one goroutine — the mesh twin of a TCP read loop.
func TestMeshDeliveryFIFO(t *testing.T) {
	t.Parallel()
	const total = 2000
	mesh := NewMesh()
	got := make(chan int, total)
	mesh.Endpoint(2).SetHandler(func(e Envelope) { got <- e.Msg.(seqMsg).n })
	defer mesh.Endpoint(2).Close()
	ep := mesh.Endpoint(1)
	for i := 0; i < total; i++ {
		if err := ep.Send(Envelope{From: 1, To: 2, Msg: seqMsg{i}}); err != nil {
			t.Fatal(err)
		}
	}
	for want := 0; want < total; want++ {
		select {
		case n := <-got:
			if n != want {
				t.Fatalf("delivery %d carried %d", want, n)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("delivery %d never came", want)
		}
	}
}

// TestMeshBlockedHandlerIsolated: a handler blocked at P2 holds up P2's own
// deliveries only; P3's keep arriving, and P2's resume, in order, once it
// returns.
func TestMeshBlockedHandlerIsolated(t *testing.T) {
	t.Parallel()
	mesh := NewMesh()
	gate := make(chan struct{})
	got2 := make(chan int, 4)
	mesh.Endpoint(2).SetHandler(func(e Envelope) {
		if e.Msg.(seqMsg).n == 0 {
			<-gate
		}
		got2 <- e.Msg.(seqMsg).n
	})
	got3 := make(chan int, 4)
	mesh.Endpoint(3).SetHandler(func(e Envelope) { got3 <- e.Msg.(seqMsg).n })
	ep := mesh.Endpoint(1)
	for i := 0; i < 2; i++ {
		_ = ep.Send(Envelope{From: 1, To: 2, Msg: seqMsg{i}})
		_ = ep.Send(Envelope{From: 1, To: 3, Msg: seqMsg{i}})
	}
	for want := 0; want < 2; want++ {
		select {
		case n := <-got3:
			if n != want {
				t.Fatalf("P3 got %d, want %d", n, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("P3's delivery waited behind P2's blocked handler")
		}
	}
	select {
	case n := <-got2:
		t.Fatalf("P2 got %d while its handler was blocked", n)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	for want := 0; want < 2; want++ {
		if n := <-got2; n != want {
			t.Fatalf("P2 got %d, want %d", n, want)
		}
	}
}

// TestMeshLatencyDelivers: an envelope Latency delays still arrives, after
// the delay, through the deadline heap — no package file calls the runtime's
// per-call timers.
func TestMeshLatencyDelivers(t *testing.T) {
	t.Parallel()
	const delay = 30 * time.Millisecond
	mesh := NewMesh()
	mesh.SetShaper(LinkShaper{Delay: func(Envelope) time.Duration { return delay }})
	got := make(chan time.Time, 1)
	mesh.Endpoint(2).SetHandler(func(Envelope) { got <- time.Now() })
	sent := time.Now()
	if err := mesh.Endpoint(1).Send(Envelope{TxID: "lat", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if took := at.Sub(sent); took < delay {
			t.Fatalf("delivered after %v, before the %v latency", took, delay)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a delayed envelope never arrived")
	}

	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "time."+"AfterFunc") {
			t.Errorf("%s uses a runtime timer per call; arm the deadline heap (After)", f.Name())
		}
	}
}

// TestInboxCloseDrops: Close does not wait for a handler in progress; what
// was queued behind it is dropped, a push after Close is refused, and the
// goroutine exits once the handler returns. Not parallel: it counts the
// process's inbox goroutines.
func TestInboxCloseDrops(t *testing.T) {
	base := inboxLoops()
	entered, gate := make(chan struct{}), make(chan struct{})
	ran := make(chan int, 8)
	in := NewInbox(func(n int) {
		if n == 0 {
			close(entered)
			<-gate
		}
		ran <- n
	})
	for i := 0; i < 4; i++ {
		in.Push(i)
	}
	<-entered
	closed := make(chan struct{})
	go func() { in.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close waited for a blocked handler")
	}
	if in.Push(4) {
		t.Fatal("a push after Close was accepted")
	}
	close(gate)
	if n := <-ran; n != 0 {
		t.Fatalf("ran %d first, want 0", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for inboxLoops() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d inbox goroutines after Close, want %d", inboxLoops(), base)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case n := <-ran:
		t.Fatalf("ran %d, queued before Close", n)
	default:
	}
}
