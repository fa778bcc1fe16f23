package commit

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
)

// The ordering rule (see Peer): a hosted peer votes on a footprint, so it
// joins a transaction on its announcement, never on a protocol envelope
// alone. These tests take the begin to one peer off the wire — the
// coordinator's transport drops it and hands it to the test — and deliver
// it, or not, by hand.

// interceptBegins makes coord drop every begin addressed to victim and
// returns the channel the dropped envelopes go to instead.
func interceptBegins(coord *Peer, victim core.ProcessID) <-chan live.Envelope {
	held := make(chan live.Envelope, 4) // one per transaction a test runs, with room
	coord.tr.(*live.TCP).SetShaper(live.LinkShaper{Drop: func(e live.Envelope) bool {
		if e.Path != beginPath || e.To != victim {
			return false
		}
		held <- e
		return true
	}})
	return held
}

// countProtocol wraps p's handler to count the protocol envelopes of txID
// p has been handed, and returns the count.
func countProtocol(p *Peer, txID string) *atomic.Int32 {
	var n atomic.Int32
	p.tr.SetHandler(func(e live.Envelope) {
		p.deliver(e)
		if e.TxID == txID && (e.Path == "" || e.Path[0] != 0) {
			n.Add(1)
		}
	})
	return &n
}

// buffered reports how many protocol envelopes p holds for an unannounced
// txID, of the ones counted in n (-1 if the record is in any other state).
func buffered(p *Peer, txID string, n *atomic.Int32) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.txns[txID]; t != nil && t.phase == unannounced {
		return int(n.Load())
	}
	return -1
}

// TestHostedPeerWaitsForItsAnnouncement: protocol envelopes reach P1, the
// INBAC backup every vote goes to, before the begin carrying its slice does.
// P1 must hold them without calling Prepare; once the begin lands it stages
// the slice, votes on it — a conflicting footprint votes no — and the run
// gets the held envelopes, without which P1 could not acknowledge a commit.
func TestHostedPeerWaitsForItsAnnouncement(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		payload string
		commits bool
	}{{"fine", true}, {conflictPayload, false}} {
		tc := tc
		t.Run(tc.payload, func(t *testing.T) {
			t.Parallel()
			// U is also how long P1 waits for the announcement: generous, so
			// that a loaded machine does not expire it under the test.
			opts := Options{Protocol: INBAC, F: 1, Timeout: 400 * time.Millisecond}
			peers, fakes, c := hostedDeployment(t, 3, opts)
			held := interceptBegins(peers[1], 1)
			c1 := ctx(t)

			txID := "overtaken-" + tc.payload
			got := countProtocol(peers[0], txID)
			txn, err := c.StageGoAll(c1, txID, 2, map[int]Message{
				1: fakeFootprint{Payload: tc.payload},
				2: fakeFootprint{Payload: "coord"},
				3: fakeFootprint{Payload: "other"},
			})
			if err != nil {
				t.Fatal(err)
			}
			begin := <-held
			// Both other peers vote to P1; it holds the votes.
			waitFor(t, "P2's and P3's votes at P1", func() bool { return buffered(peers[0], txID, got) == 2 })
			if payload, ok := fakes[0].preparedWith(txID); ok {
				t.Fatalf("P1 called Prepare (on %q) before its announcement arrived", payload)
			}

			peers[0].deliver(begin)
			if payload, ok := fakes[0].preparedWith(txID); !ok || payload != tc.payload {
				t.Fatalf("after the begin P1 prepared on (%q, %v), want its slice %q", payload, ok, tc.payload)
			}
			ok, err := txn.Wait(c1)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.commits {
				t.Fatalf("committed = %v, want %v", ok, tc.commits)
			}
			list := abortedList
			if tc.commits {
				list = committedList
			}
			for i, f := range fakes {
				f := f
				waitFor(t, fmt.Sprintf("P%d's outcome", i+1), func() bool { return f.has(list, txID) })
			}
		})
	}
}

// TestUnannouncedTransactionAborts: the begin to one peer is lost for good.
// That peer sees protocol traffic only; after one timeout unit it joins
// voting abort without calling Prepare, and the transaction ends in abort at
// every peer and at the client, each Resource's Abort firing once.
func TestUnannouncedTransactionAborts(t *testing.T) {
	t.Parallel()
	for _, victim := range []int{1, 3} { // the backup all votes go to; a peer that only hears from it
		victim := victim
		t.Run(fmt.Sprintf("P%d", victim), func(t *testing.T) {
			t.Parallel()
			opts := Options{Protocol: INBAC, F: 1, Timeout: 50 * time.Millisecond}
			peers, fakes, c := hostedDeployment(t, 3, opts)
			interceptBegins(peers[1], core.ProcessID(victim))
			c1, cancel := context.WithTimeout(context.Background(), 40*opts.Timeout)
			defer cancel()

			txID := fmt.Sprintf("unannounced-%d", victim)
			txn, err := c.StageGoAll(c1, txID, 2, map[int]Message{
				1: fakeFootprint{Payload: "a"}, 2: fakeFootprint{Payload: "b"}, 3: fakeFootprint{Payload: "c"},
			})
			if err != nil {
				t.Fatal(err)
			}
			ok, err := txn.Wait(c1)
			if err != nil || ok {
				t.Fatalf("committed=%v err=%v, want an abort without error", ok, err)
			}
			for i, f := range fakes {
				f := f
				waitFor(t, fmt.Sprintf("P%d's abort", i+1), func() bool { return f.has(abortedList, txID) })
			}
			if payload, ok := fakes[victim-1].preparedWith(txID); ok {
				t.Fatalf("P%d called Prepare (on %q) for a transaction nobody announced to it", victim, payload)
			}
			// Let a second callback, if one were coming, arrive.
			waitFor(t, "retirement", func() bool {
				for _, p := range peers {
					p.mu.Lock()
					_, alive := p.txns[txID]
					p.mu.Unlock()
					if alive {
						return false
					}
				}
				return true
			})
			for i, f := range fakes {
				if n := f.count(abortedList, txID) + f.count(committedList, txID); n != 1 {
					t.Errorf("P%d's Resource got %d outcome callbacks, want 1", i+1, n)
				}
			}
		})
	}
}

// TestLateSliceIsNotStaged: a begin that arrives after its peer gave up on
// the announcement — or after the transaction ended there — must not leave
// its slice on the resource: nothing would ever resolve it.
func TestLateSliceIsNotStaged(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 50 * time.Millisecond}
	peers, fakes, c := hostedDeployment(t, 3, opts)
	held := interceptBegins(peers[1], 1)
	c1 := ctx(t)

	const txID = "late-slice"
	txn, err := c.StageGoAll(c1, txID, 2, map[int]Message{
		1: fakeFootprint{Payload: "late"}, 2: fakeFootprint{Payload: "coord"},
	})
	if err != nil {
		t.Fatal(err)
	}
	begin := <-held
	if ok, err := txn.Wait(c1); err != nil || ok {
		t.Fatalf("committed=%v err=%v, want an abort without error", ok, err)
	}
	waitFor(t, "P1's abort", func() bool { return fakes[0].has(abortedList, txID) })
	staged := func() (string, bool) {
		fakes[0].mu.Lock()
		defer fakes[0].mu.Unlock()
		payload, ok := fakes[0].history[txID]
		return payload, ok
	}
	peers[0].deliver(begin) // as the transaction ends there
	if payload, ok := staged(); ok {
		t.Fatalf("a begin for an ending transaction staged %q", payload)
	}
	waitFor(t, "P1's retirement", func() bool {
		peers[0].mu.Lock()
		defer peers[0].mu.Unlock()
		_, retired := peers[0].decided.get(txID)
		return retired
	})
	peers[0].deliver(begin) // and after it retired
	if payload, ok := staged(); ok {
		t.Fatalf("a begin for a decided transaction staged %q", payload)
	}
}

// TestPlainPeerJoinsOnProtocolEnvelope: a peer with a plain Resource needs
// no announcement — P1 is told nothing, sees the others' votes, and takes
// part. (TestStragglerLearnsOutcome and TestLivePathEnvelopeBound lean on
// the same.)
func TestPlainPeerJoinsOnProtocolEnvelope(t *testing.T) {
	t.Parallel()
	rs, counters := resources(true, true, true)
	peers := startPeers(t, rs, Options{Protocol: INBAC, F: 1, Timeout: 50 * time.Millisecond})
	c1 := ctx(t)
	results := make(chan error, 2)
	for _, p := range peers[1:] {
		p := p
		go func() {
			_, err := p.Wait(c1, "plain-join")
			results <- err
		}()
	}
	for range peers[1:] {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "P1's outcome callback", func() bool {
		return counters[0].commits.Load()+counters[0].aborts.Load() == 1
	})
}

// TestReservedPathIgnored: an envelope on a reserved path a peer does not
// serve — a reply meant for a client, a request of a retired message, a path
// nobody ever used — is not protocol traffic. Neither a hosted nor a plain
// peer joins a transaction for it, calls its resource or answers it.
func TestReservedPathIgnored(t *testing.T) {
	t.Parallel()
	opts := Options{Protocol: INBAC, F: 1, Timeout: 10 * time.Millisecond}
	hosted, fakes, _ := hostedDeployment(t, 3, opts)
	var calls, sent atomic.Int64
	count := func(string) { calls.Add(1) }
	plain := startPeers(t, []Resource{
		ResourceFunc{PrepareFn: func(string) bool { calls.Add(1); return true }, CommitFn: count, AbortFn: count},
		ResourceFunc{}, ResourceFunc{},
	}, opts)
	paths := []string{"\x00stage", "\x00unstage", "\x00stageack", "\x00decide", "\x00result", "\x00bogus"}
	for _, p := range []*Peer{hosted[0], plain[0]} {
		p.tr.(*live.TCP).SetShaper(live.LinkShaper{Drop: func(live.Envelope) bool { sent.Add(1); return true }})
		for i, path := range paths {
			p.deliver(live.Envelope{TxID: fmt.Sprintf("reserved-%d", i), From: 4, To: 1, Path: path,
				Msg: fakeFootprint{Payload: "x"}})
		}
	}
	time.Sleep(4 * opts.Timeout) // what a joined transaction would do by now: vote, time out, decide

	f := fakes[0]
	f.mu.Lock()
	staged, prepared, decided := len(f.history), len(f.prepared), len(f.committed)+len(f.aborted)
	f.mu.Unlock()
	if staged+prepared+decided != 0 || calls.Load() != 0 {
		t.Errorf("resource calls: hosted stage %d, prepare %d, commit or abort %d; plain %d; want none",
			staged, prepared, decided, calls.Load())
	}
	if n := sent.Load(); n != 0 {
		t.Errorf("the peers sent %d envelopes, want none", n)
	}
	for _, p := range []*Peer{hosted[0], plain[0]} {
		p.mu.Lock()
		n := len(p.txns)
		p.mu.Unlock()
		if n != 0 {
			t.Errorf("%v holds %d transaction records, want none", p.id, n)
		}
	}
}
