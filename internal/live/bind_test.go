package live

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"atomiccommit/internal/core"
)

// answering makes tr send every envelope it receives back to its sender.
func answering(tr *TCP) {
	tr.SetHandler(func(e Envelope) {
		_ = tr.Send(Envelope{TxID: e.TxID, From: tr.id, To: e.From, Path: "reply", Msg: e.Msg})
	})
}

// receiving returns the channel tr's handler puts every envelope on.
func receiving(tr *TCP) chan Envelope {
	got := make(chan Envelope, 16)
	tr.SetHandler(func(e Envelope) { got <- e })
	return got
}

func request(t *testing.T, tr *TCP, txID string, from, to core.ProcessID) {
	t.Helper()
	if err := tr.Send(Envelope{TxID: txID, From: from, To: to, Path: "p", Msg: echoMsg{V: core.Commit}}); err != nil {
		t.Fatal(err)
	}
}

func expect(t *testing.T, got chan Envelope, txID string) {
	t.Helper()
	select {
	case e := <-got:
		if e.TxID != txID {
			t.Fatalf("got envelope %q, want %q", e.TxID, txID)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("envelope %q never arrived", txID)
	}
}

func expectNone(t *testing.T, got chan Envelope, whose string) {
	t.Helper()
	select {
	case e := <-got:
		t.Fatalf("%s received %q", whose, e.TxID)
	case <-time.After(50 * time.Millisecond):
	}
}

func records(tr *TCP) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.conns)
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestBindReplyRidesTheRequestConnection: a process with no address of its
// own opens no listener, and is answered on the connection it dialed — one
// dial for both directions. Not parallel: it reads a process-wide counter.
func TestBindReplyRidesTheRequestConnection(t *testing.T) {
	addrs := freeAddrs(t, 1)
	srv := newTCP(t, 1, addrs)
	answering(srv)
	cl := newTCP(t, 9, addrs)
	got := receiving(cl)
	if a := cl.Addr(); a != "" {
		t.Fatalf("a process beyond the address table listens on %q", a)
	}

	dials := mDials.Value()
	request(t, cl, "first", 9, 1)
	expect(t, got, "first")
	request(t, cl, "second", 9, 1)
	expect(t, got, "second")
	if d := mDials.Value() - dials; d != 1 {
		t.Fatalf("two round trips dialed %d times, want 1", d)
	}
}

// TestBindNeverCapturesAPeer: an inbound connection whose envelopes claim the
// ID of a configured peer does not become the way to that peer.
func TestBindNeverCapturesAPeer(t *testing.T) {
	t.Parallel()
	addrs := freeAddrs(t, 2)
	t1, t2 := newTCP(t, 1, addrs), newTCP(t, 2, addrs)
	impostor := newTCP(t, 9, addrs)
	got1, got2, gotImpostor := receiving(t1), receiving(t2), receiving(impostor)

	request(t, impostor, "claim", 2, 1)
	expect(t, got1, "claim")
	request(t, t1, "for-p2", 1, 2)
	expect(t, got2, "for-p2")
	expectNone(t, gotImpostor, "the connection claiming to be P2")
}

// TestBindNewerConnectionTakesOver: when a second connection carries an ID,
// replies go there and the first connection's record is shut; whichever
// process sends next holds the binding.
func TestBindNewerConnectionTakesOver(t *testing.T) {
	t.Parallel()
	addrs := freeAddrs(t, 1)
	srv := newTCP(t, 1, addrs)
	answering(srv)
	old, young := newTCP(t, 9, addrs), newTCP(t, 9, addrs)
	gotOld, gotYoung := receiving(old), receiving(young)

	request(t, old, "old-1", 9, 1)
	expect(t, gotOld, "old-1")
	request(t, young, "young-1", 9, 1)
	expect(t, gotYoung, "young-1")
	expectNone(t, gotOld, "the connection that lost the ID")
	// The stale record was shut, which closed its connection: the old
	// process's read loop ends and drops its side too.
	eventually(t, "the stale connection to close", func() bool {
		return records(old) == 0 && records(srv) == 1
	})

	request(t, old, "old-2", 9, 1) // redials, and takes the ID back
	expect(t, gotOld, "old-2")
	expectNone(t, gotYoung, "the connection that lost the ID back")
}

// loops counts the goroutines reading or flushing a TCP connection, over the
// whole process.
func loops() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "(*TCP).readLoop(") + strings.Count(stacks, "(*TCP).connLoop(")
}

// TestBindGoesWithTheConnection: a connection costs a flusher where it is
// written and a reader where something can arrive — between peers one of each,
// to a client two of each — and once the client closed, its record and both
// goroutines are gone from the accepting side, and what is sent to its ID is
// dropped: no record, no dial. Not parallel: it counts the process's
// goroutines and dials.
func TestBindGoesWithTheConnection(t *testing.T) {
	eventually(t, "earlier tests' connections to go", func() bool { return loops() == 0 })
	addrs := freeAddrs(t, 2)
	t1, t2 := newTCP(t, 1, addrs), newTCP(t, 2, addrs)
	got1, got2 := receiving(t1), receiving(t2)
	request(t, t1, "peer", 1, 2)
	expect(t, got2, "peer")
	if n := loops(); n != 2 {
		t.Fatalf("%d goroutines on a peer-to-peer connection, want the dialer's flusher and the listener's reader", n)
	}

	cl, err := NewTCP(9, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gotCl := receiving(cl)
	request(t, cl, "hi", 9, 1)
	expect(t, got1, "hi")
	request(t, t1, "reply", 1, 9)
	expect(t, gotCl, "reply")
	if n, l := records(t1), loops(); n != 2 || l != 6 {
		t.Fatalf("%d records at P1 and %d goroutines while the client is connected, want 2 and 6", n, l)
	}

	cl.Close()
	eventually(t, "the record and its goroutines to go", func() bool {
		return records(t1) == 1 && loops() == 2
	})
	dials := mDials.Value()
	request(t, t1, "late", 1, 9) // nil error: the client looks crashed
	if n, d := records(t1), mDials.Value()-dials; n != 1 || d != 0 {
		t.Fatalf("a send to a closed client left %d records and %d dials, want 1 and none", n, d)
	}
}
