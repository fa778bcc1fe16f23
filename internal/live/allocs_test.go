//go:build !race

// The race detector instruments allocations, so the alloc-count guard only
// runs in non-race test invocations (the CI bench smoke job).

package live

import (
	"runtime"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols/inbac"
)

// TestTCPSendSteadyStateAllocs pins the hot send path at (amortized) zero
// allocations per envelope: appendEnvelope writes into the connection's
// reused pending/scratch buffers, and the flush loop recycles its frame
// buffer, so once those buffers have grown to working size nothing on the
// per-envelope path allocates.
func TestTCPSendSteadyStateAllocs(t *testing.T) {
	t1, recv := tcpPair(t)
	e := Envelope{TxID: "alloc-test", From: 1, To: 2, Path: "", Msg: echoMsg{V: core.Commit}}

	// Warm-up: dial the connection and grow the pending/scratch/frame
	// buffers to steady state.
	for i := 0; i < 512; i++ {
		if err := t1.Send(e); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("warm-up envelopes never delivered")
	}

	avg := testing.AllocsPerRun(2000, func() {
		if err := t1.Send(e); err != nil {
			t.Fatal(err)
		}
	})
	// The flush goroutine occasionally regrows a buffer concurrently with
	// the measured loop; allow a small epsilon above the ~0 target.
	if avg > 0.1 {
		t.Fatalf("steady-state Send allocates %.3f allocs/envelope, want ~0", avg)
	}
}

// TestTCPLoneEnvelopeAllocs counts what one envelope costs end to end when
// it travels alone — its own flush, its own frame, its own decode — which
// the test above, amortizing flushes over thousands of sends, cannot see.
// The one allocation is the receiver's decoded TxID (the test's message
// boxes without one). A decoder of the payload's own cost one more, 2 in
// all, until the payload was decoded on the read loop's decoder. A flush
// is one writev of header and frame, and its vector is the connection's:
// built per flush, it cost two more.
func TestTCPLoneEnvelopeAllocs(t *testing.T) {
	const ceiling = 1
	t1, recv := tcpPair(t)
	e := Envelope{TxID: "alloc-test", From: 1, To: 2, Path: "", Msg: echoMsg{V: core.Commit}}
	lost := time.After(30 * time.Second) // one timer: a timer per send would count
	send := func() {
		if err := t1.Send(e); err != nil {
			t.Fatal(err)
		}
		select {
		case <-recv:
		case <-lost:
			t.Fatal("envelope never delivered")
		}
	}
	for i := 0; i < 64; i++ { // dial, grow the buffers
		send()
	}
	avg := testing.AllocsPerRun(500, send)
	t.Logf("%.2f allocs per lone envelope, send to delivery", avg)
	if avg > ceiling {
		t.Fatalf("a lone envelope costs %.2f allocations, ceiling %d", avg, ceiling)
	}
}

// tcpPair connects P1 to P2 over loopback and returns P1's transport and a
// channel that signals each envelope P2 is handed (dropping signals nobody
// takes in time).
func tcpPair(t *testing.T) (*TCP, <-chan struct{}) {
	t.Helper()
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t2.Close() })
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { t1.Close() })
	recv := make(chan struct{}, 4096)
	t2.SetHandler(func(Envelope) {
		select {
		case recv <- struct{}{}:
		default:
		}
	})
	return t1, recv
}

// TestUnmarshalMessageAllocs: decoding a nested message allocates nothing of
// its own (the message here boxes without an allocation). Its decoder cost
// one per call while it was the call's own, escaping through UnmarshalWire.
func TestUnmarshalMessageAllocs(t *testing.T) {
	b, err := MarshalMessage(echoMsg{V: core.Commit})
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if m, err := UnmarshalMessage(b); err != nil || m != (echoMsg{V: core.Commit}) {
			t.Fatalf("decoded %v, %v", m, err)
		}
	})
	if avg != 0 {
		t.Fatalf("a nested message costs %.2f allocations to decode, want 0", avg)
	}
}

// TestDecidePathCounterResolvedOnce: a decision counts on the registry's
// "decide_path.<label>.<note>" counter ("unlabeled" standing in for no
// label), and once the pair was resolved, finding it again allocates
// nothing — no name is built per decision.
func TestDecidePathCounterResolvedOnce(t *testing.T) {
	for _, tc := range []struct{ label, name string }{
		{"inbac", "decide_path.inbac.test-note"},
		{"", "decide_path.unlabeled.test-note"},
	} {
		if decidePathCounter(tc.label, "test-note") != obs.M.Counter(tc.name) {
			t.Fatalf("label %q: not the counter %s", tc.label, tc.name)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { decidePathCounter("inbac", "test-note").Add(1) }); avg != 0 {
		t.Fatalf("a resolved decide-path counter costs %.1f allocs per decision, want 0", avg)
	}
}

// TestInstanceNiceINBACAllocs is the ceiling on what a nice INBAC commit may
// allocate at n=4 across its four live.Instances, protocol modules included:
// 17 since the consensus module is built on first use (a nice execution never
// builds it), INBAC's vote sets are in the module, an instance holds its one
// child in place and a Wait that finds the decision makes no channel, 41
// since an instance holds its root's Env and a payload is decoded on its
// transport's decoder, 45 since an instance holds its modules as a root and
// a slice of children
// (49 with a map per instance), 60 before that, and 101 with a goroutine per
// self-send, a time.AfterFunc per timer and map-backed collections. A change
// that needs more than the ceiling has to say why here.
func TestInstanceNiceINBACAllocs(t *testing.T) {
	const txns, ceiling = 64, 19
	niceINBAC(t, txns, inbac.Options{}) // start the timer goroutine, grow the deadline heap
	perTxn := testing.AllocsPerRun(5, func() { niceINBAC(t, txns, inbac.Options{}) }) / txns
	t.Logf("%.1f allocs per nice INBAC transaction", perTxn)
	if perTxn > ceiling {
		t.Fatalf("a nice INBAC transaction allocates %.1f times, ceiling %d", perTxn, ceiling)
	}
}

// TestInstanceNiceINBACBytesAllocs is the ceiling on the bytes the same nice
// INBAC commit allocates, the test's own envelope queue (1,152 of them)
// included: about 3,900 since the changes named above, 6,900 before them.
func TestInstanceNiceINBACBytesAllocs(t *testing.T) {
	const txns, ceiling = 64, 4200
	niceINBAC(t, txns, inbac.Options{})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 5 {
		niceINBAC(t, txns, inbac.Options{})
	}
	runtime.ReadMemStats(&m1)
	perTxn := float64(m1.TotalAlloc-m0.TotalAlloc) / (5 * txns)
	t.Logf("%.0f bytes allocated per nice INBAC transaction", perTxn)
	if perTxn > ceiling {
		t.Fatalf("a nice INBAC transaction allocates %.0f bytes, ceiling %d", perTxn, ceiling)
	}
}
