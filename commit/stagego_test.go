package commit

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/live"
	"atomiccommit/internal/wire"
)

// TestClientStageGoCommits: the piggybacked stage+go leg must deliver the
// coordinator's footprint AND run the commit in one client round trip —
// the fake sees the payload staged, the transaction commits everywhere.
func TestClientStageGoCommits(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	_, fakes, c := hostedDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// An indulgent protocol may legally abort an all-yes transaction when
	// scheduling delay violates its timing bound (common under -race), so
	// retry with a fresh ID before calling it a failure.
	var txID string
	committed := false
	for attempt := 0; attempt < 4 && !committed; attempt++ {
		txID = fmt.Sprintf("stagego-tx-%d", attempt)
		txn, err := c.StageGoAll(ctx, txID, 2, map[int]Message{2: fakeFootprint{Payload: "piggy"}})
		if err != nil {
			t.Fatal(err)
		}
		committed, err = txn.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !committed {
		t.Fatal("all-yes stage+go transaction aborted on every attempt")
	}
	fakes[1].mu.Lock()
	staged := fakes[1].history[txID]
	fakes[1].mu.Unlock()
	if staged != "piggy" {
		t.Fatalf("coordinator staged payload = %q, want piggy", staged)
	}
	waitFor(t, "coordinator commit callback", func() bool {
		return fakes[1].has(committedList, txID)
	})
}

// TestClientStageGoNilFootprint: a stage+go with no footprint is a bare
// commit, what SubmitAt sends: nothing is staged, every peer prepares on the txID alone, and the
// transaction commits.
func TestClientStageGoNilFootprint(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	_, _, c := hostedDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Timing aborts are legal for an all-yes transaction (see above): retry
	// with a fresh ID.
	committed := false
	for attempt := 0; attempt < 4 && !committed; attempt++ {
		txn, err := c.StageGoAll(ctx, fmt.Sprintf("stagego-bare-%d", attempt), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		committed, err = txn.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !committed {
		t.Fatal("bare stage+go aborted on every attempt")
	}
}

// TestClientStageGoTooLarge: an oversized footprint is rejected client-side
// before anything reaches the wire; there is no other way to ship it.
func TestClientStageGoTooLarge(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	_, _, c := hostedDeployment(t, 2, opts)

	big := fakeFootprint{Payload: strings.Repeat("x", stageGoBudget+1)}
	txn, err := c.StageGoAll(context.Background(), "stagego-big", 1, map[int]Message{1: big})
	if !errors.Is(err, ErrStageTooLarge) {
		t.Fatalf("err = %v, want ErrStageTooLarge", err)
	}
	if txn != nil {
		t.Fatal("oversized stage+go returned a live future")
	}
}

// TestClientStageGoLargeFrame: a footprint of 200 KiB, under stageGoBudget,
// goes out as one TCP frame fifty times the 4 KiB per-connection read buffer
// (readBufferSize in internal/live). The reader must take it whole, past its
// buffer: the coordinator stages every byte and the transaction commits.
func TestClientStageGoLargeFrame(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	_, fakes, c := hostedDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var b strings.Builder
	for i := 0; b.Len() < 200<<10; i++ {
		fmt.Fprintf(&b, "%08d", i) // no two 8-byte blocks alike: a lost or repeated chunk shows
	}
	payload := b.String()
	// Timing aborts are legal for an all-yes transaction (see
	// TestClientStageGoCommits): retry with a fresh ID.
	var txID string
	committed := false
	for attempt := 0; attempt < 4 && !committed; attempt++ {
		txID = fmt.Sprintf("stagego-large-%d", attempt)
		txn, err := c.StageGoAll(ctx, txID, 2, map[int]Message{2: fakeFootprint{Payload: payload}})
		if err != nil {
			t.Fatal(err)
		}
		if committed, err = txn.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !committed {
		t.Fatal("all-yes stage+go transaction with a 200 KiB footprint aborted on every attempt")
	}
	fakes[1].mu.Lock()
	staged := fakes[1].history[txID]
	fakes[1].mu.Unlock()
	if staged != payload {
		t.Fatalf("coordinator staged %d bytes, want the %d sent", len(staged), len(payload))
	}
}

// TestClientStageGoRefused: a coordinator whose resource refuses its own
// slice votes abort without calling Prepare, as every other peer does with a
// slice it cannot stage (TestBeginBadSliceVotesAbort): the client sees an
// abort without error, never a hang.
func TestClientStageGoRefused(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	_, fakes, c := hostedDeployment(t, 3, opts)
	fakes[0].mu.Lock()
	fakes[0].refuse = true
	fakes[0].mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const txID = "stagego-refused"
	txn, err := c.StageGoAll(ctx, txID, 1, map[int]Message{1: fakeFootprint{Payload: "p"}})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := txn.Wait(ctx)
	if ok || err != nil {
		t.Fatalf("refused stage+go: ok=%v err=%v, want an abort without error", ok, err)
	}
	if payload, called := fakes[0].preparedWith(txID); called {
		t.Fatalf("P1 called Prepare (on %q) after refusing its slice", payload)
	}
}

// TestClientStageGoNonHostedPeer: a coordinator without a stageable resource
// cannot take its slice, so it votes abort without calling Prepare — it does
// not silently run the commit without the footprint.
func TestClientStageGoNonHostedPeer(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	addrs := reserveAddrs(t, 2)
	var prepared atomic.Int64
	for i := 1; i <= 2; i++ {
		res := ResourceFunc{} // not a HostedResource
		if i == 1 {
			res.PrepareFn = func(string) bool { prepared.Add(1); return true }
		}
		p, err := NewPeer(i, addrs, res, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
	}
	c, err := NewClient(3, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	txn, err := c.StageGoAll(ctx, "stagego-nonhosted", 1, map[int]Message{1: fakeFootprint{}})
	if err != nil {
		t.Fatal(err)
	}
	ok, werr := txn.Wait(ctx)
	if ok || werr != nil {
		t.Fatalf("stage+go at a non-hosting peer: ok=%v err=%v, want an abort without error", ok, werr)
	}
	if n := prepared.Load(); n != 0 {
		t.Fatalf("P1 called Prepare %d times without the footprint it was sent", n)
	}
}

// TestStageGoMalformedRefused: a stage+go message crosses a trust boundary.
// Whatever is wrong with the slices for the other peers — or with the
// coordinator's own — the coordinator answers with one resultMsg error before
// anything is staged anywhere.
func TestStageGoMalformedRefused(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}
	_, fakes, c := hostedDeployment(t, 3, opts)
	enc := func(payload string) []byte {
		b, err := live.MarshalMessage(fakeFootprint{Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	garbage := []byte{0xff, 0xff, 0xff, 0x7f} // a wire ID nothing registers
	cases := []struct {
		name string
		msg  stageGoMsg
	}{
		{"peer zero", stageGoMsg{Fp: enc("c"), Others: []peerSlice{{Peer: 0, Fp: enc("x")}}}},
		{"peer beyond n", stageGoMsg{Fp: enc("c"), Others: []peerSlice{{Peer: 4, Fp: enc("x")}}}},
		{"coordinator among the others", stageGoMsg{Fp: enc("c"), Others: []peerSlice{{Peer: 1, Fp: enc("x")}}}},
		{"duplicate peer", stageGoMsg{Fp: enc("c"), Others: []peerSlice{{Peer: 2, Fp: enc("x")}, {Peer: 2, Fp: enc("y")}}}},
		{"slice does not decode", stageGoMsg{Fp: enc("c"), Others: []peerSlice{{Peer: 2, Fp: enc("x")}, {Peer: 3, Fp: garbage}}}},
		{"empty slice", stageGoMsg{Fp: enc("c"), Others: []peerSlice{{Peer: 2}}}},
		{"own slice does not decode", stageGoMsg{Fp: garbage, Others: []peerSlice{{Peer: 2, Fp: enc("x")}}}},
		{"total over budget", stageGoMsg{Fp: enc(strings.Repeat("c", stageGoBudget/2)),
			Others: []peerSlice{{Peer: 2, Fp: enc(strings.Repeat("x", stageGoBudget/2))}}}},
	}
	for i, tc := range cases {
		i, tc := i, tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c1, cancel := context.WithTimeout(context.Background(), 20*opts.Timeout)
			defer cancel()
			txID := fmt.Sprintf("malformed-%d", i)
			ok, err := c.submitMsg(c1, txID, 1, tc.msg).Wait(c1)
			if ok || err == nil || errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("ok=%v err=%v, want the coordinator's refusal", ok, err)
			}
			for j, f := range fakes {
				f.mu.Lock()
				payload, staged := f.history[txID]
				f.mu.Unlock()
				if staged {
					t.Errorf("P%d staged %q for a refused message", j+1, payload)
				}
			}
		})
	}
}

// TestBeginBadSliceVotesAbort: a peer that cannot stage the slice its begin
// carries — it does not decode, or the resource refuses it — votes abort
// without calling Prepare, so the client sees an abort, never a hang.
func TestBeginBadSliceVotesAbort(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}

	t.Run("does not decode", func(t *testing.T) {
		t.Parallel()
		peers, fakes, c := hostedDeployment(t, 3, opts)
		c1 := ctx(t)
		const txID = "begin-garbage"
		// A coordinator forwards no slice whose wire ID is unregistered.
		peers[2].deliver(live.Envelope{TxID: txID, From: 1, To: 3, Path: beginPath,
			Msg: beginMsg{Fp: []byte{0xff, 0xff, 0xff, 0x7f}}})
		ok, err := c.SubmitAt(c1, txID, 1).Wait(c1)
		if ok || err != nil {
			t.Fatalf("ok=%v err=%v, want an abort without error", ok, err)
		}
		if payload, called := fakes[2].preparedWith(txID); called {
			t.Fatalf("P3 called Prepare (on %q) after a slice it could not decode", payload)
		}
	})

	t.Run("body cut short", func(t *testing.T) {
		t.Parallel()
		_, fakes, c := hostedDeployment(t, 3, opts)
		c1 := ctx(t)
		const txID = "begin-truncated"
		enc := func(payload string) []byte {
			b, err := live.MarshalMessage(fakeFootprint{Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		// A registered wire ID whose body ends early: the coordinator
		// checks only the ID of a slice it forwards, so P3 meets the
		// truncation when it decodes its begin.
		cut := enc("slice")
		cut = cut[:len(cut)-1]
		ok, err := c.submitMsg(c1, txID, 1, stageGoMsg{Fp: enc("a"),
			Others: []peerSlice{{Peer: 2, Fp: enc("b")}, {Peer: 3, Fp: cut}}}).Wait(c1)
		if ok || err != nil {
			t.Fatalf("ok=%v err=%v, want an abort without error", ok, err)
		}
		fakes[2].mu.Lock()
		payload, staged := fakes[2].history[txID]
		fakes[2].mu.Unlock()
		if staged {
			t.Fatalf("P3 staged %q from a slice cut short", payload)
		}
		if payload, called := fakes[2].preparedWith(txID); called {
			t.Fatalf("P3 called Prepare (on %q) after a slice it could not decode", payload)
		}
	})

	t.Run("stage refused", func(t *testing.T) {
		t.Parallel()
		_, fakes, c := hostedDeployment(t, 3, opts)
		fakes[2].mu.Lock()
		fakes[2].refuse = true
		fakes[2].mu.Unlock()
		c1 := ctx(t)
		const txID = "begin-refused"
		txn, err := c.StageGoAll(c1, txID, 1, map[int]Message{
			1: fakeFootprint{Payload: "a"}, 3: fakeFootprint{Payload: "c"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := txn.Wait(c1)
		if ok || err != nil {
			t.Fatalf("ok=%v err=%v, want an abort without error", ok, err)
		}
		if payload, called := fakes[2].preparedWith(txID); called {
			t.Fatalf("P3 called Prepare (on %q) after refusing the stage", payload)
		}
		waitFor(t, "P1 dropping its staged slice", func() bool { return fakes[0].has(abortedList, txID) })
	})
}

// FuzzStageGoFootprintTruncation drives truncated and mutated stage+go
// payloads through the exact decode path the peer runs on them — the outer
// stageGoMsg decode, then live.UnmarshalMessage on the piggybacked bytes.
// Whatever the input, the decoders must error cleanly, never panic: the
// footprint crosses a trust boundary (any client can send one).
func FuzzStageGoFootprintTruncation(f *testing.F) {
	inner, err := live.MarshalMessage(fakeFootprint{Payload: "seed-payload"})
	if err != nil {
		f.Fatal(err)
	}
	full := stageGoMsg{Fp: inner}.MarshalWire(nil)
	for i := 0; i <= len(full); i++ {
		f.Add(full[:i])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d wire.Decoder
		d.Reset(raw)
		out, err := stageGoMsg{}.UnmarshalWire(&d)
		if err != nil {
			return
		}
		m, ok := out.(stageGoMsg)
		if !ok {
			t.Fatalf("decoded %T, want stageGoMsg", out)
		}
		if len(m.Fp) == 0 {
			return
		}
		// The handler's second decode stage: corrupt piggybacked bytes must
		// surface as an error (the peer refuses), never a panic.
		_, _ = live.UnmarshalMessage(m.Fp)
	})
}
