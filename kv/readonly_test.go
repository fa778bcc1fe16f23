package kv

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// readCommitted returns key's latest committed value and version without
// waiting out a write intent on it: the view of a shard in the middle of a
// decision that no store read takes (see Shard.readCommittedMulti).
func (sh *Shard) readCommitted(key string) (string, bool, uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec := sh.records[key]
	return rec.value, rec.present, rec.version
}

// validation is the query a client validates keys read at vers on sh with:
// a one-hop relay already on its way back.
func validation(sh *Shard, keys []string, vers []uint64) relayMsg {
	return relayMsg{N: 2, Client: 3, Back: true, Hops: []relayHop{{Peer: core.ProcessID(sh.id + 1), Keys: keys, Got: readReplyMsg{Vers: vers}}}}
}

// TestValidateRefusesAcrossVisibilityGap walks one writer W over x (shard A)
// and y (shard B) through the gap in which it is applied on A and still
// prepared on B, and asks both shards about a reader that saw new x and old
// y. A has nothing to object to; the read is fractured, and only B can say
// so: by W's write intent while B holds it, by the version once B applied.
// Not parallel: it asserts on global counter deltas.
//
// Mutation note: with the write-intent check deleted from Shard.validate,
// step 2 answers yes on both shards and the reader commits having seen W on
// A and not on B — run the test after that edit to see the check is what
// keeps a committed read-only transaction from a fractured read.
func TestValidateRefusesAcrossVisibilityGap(t *testing.T) {
	a, b := NewShard(0), NewShard(1)
	write := func(txID string, sh *Shard, key, val string) {
		t.Helper()
		if err := sh.Stage(txID, footprintMsg{WriteKeys: []string{key}, WriteVals: []string{val}, WriteDels: []bool{false}}); err != nil {
			t.Fatal(err)
		}
		if !sh.Prepare(txID) {
			t.Fatalf("%s: shard %d voted no", txID, sh.id)
		}
	}
	validate := func(sh *Shard, key string, ver uint64) bool {
		t.Helper()
		reply, err := sh.Query(validation(sh, []string{key}, []uint64{ver}))
		if err != nil {
			t.Fatal(err)
		}
		return reply.(relayMsg).Hops[0].OK
	}
	conflicts := func() (intent, stale int64) {
		return obs.M.CounterValue("kv.conflict.intent"), obs.M.CounterValue("kv.conflict.stale_read")
	}

	write("seed", a, "x", "old")
	write("seed", b, "y", "old")
	a.Commit("seed")
	b.Commit("seed")

	// 1. W prepared on both shards, committed on A only.
	write("W", a, "x", "new")
	write("W", b, "y", "new")
	a.Commit("W")

	// 2. The reader saw new x and old y.
	xv, _, xver := a.readCommitted("x")
	yv, _, yver := b.readCommitted("y")
	if xv != "new" || yv != "old" {
		t.Fatalf("read x=%q y=%q, want the fractured new/old", xv, yv)
	}
	intent0, stale0 := conflicts()
	if !validate(a, "x", xver) {
		t.Fatal("shard A refused a current read with no intent on it")
	}
	if validate(b, "y", yver) {
		t.Fatal("shard B validated old y while W's write intent is on it: a fractured read commits")
	}
	if intent, stale := conflicts(); intent-intent0 != 1 || stale != stale0 {
		t.Fatalf("refusal counted as %d intent conflicts and %d stale reads, want 1 and 0", intent-intent0, stale-stale0)
	}

	// 3. B applies: the same read is now refused for its version.
	b.Commit("W")
	if validate(b, "y", yver) {
		t.Fatal("shard B validated a version W overwrote")
	}
	if intent, stale := conflicts(); intent-intent0 != 1 || stale-stale0 != 1 {
		t.Fatalf("after the apply: %d intent conflicts and %d stale reads, want 1 and 1", intent-intent0, stale-stale0)
	}

	// 4. A fresh read of both validates, and validation left nothing behind.
	_, _, xver = a.readCommitted("x")
	yv, _, yver = b.readCommitted("y")
	if yv != "new" || !validate(a, "x", xver) || !validate(b, "y", yver) {
		t.Fatalf("fresh read y=%q did not validate on both shards", yv)
	}
	for _, sh := range []*Shard{a, b} {
		if len(sh.staged) != 0 || len(sh.locks) != 0 {
			t.Fatalf("shard %d holds staged=%d locks=%d after validations", sh.id, len(sh.staged), len(sh.locks))
		}
	}
}

// TestAnchorHeldAcrossVisibilityGap is TestValidateRefusesAcrossVisibilityGap
// with B as the anchor: the reader saw W's x on A, then reads y on B last,
// where the read is to stand in for B's validation. W still holds its intent
// on B, so the read must not answer the pre-image: it answers a
// commit.Deferred, which calls nobody back until B applies W and then
// answers W's y with the verdict yes. The shards are called directly, so
// only B's Commit can answer the parked read.
func TestAnchorHeldAcrossVisibilityGap(t *testing.T) {
	t.Parallel()
	a, b := NewShard(0), NewShard(1)
	write := func(txID string, sh *Shard, key, val string) {
		t.Helper()
		if err := sh.Stage(txID, footprintMsg{WriteKeys: []string{key}, WriteVals: []string{val}, WriteDels: []bool{false}}); err != nil {
			t.Fatal(err)
		}
		if !sh.Prepare(txID) {
			t.Fatalf("%s: shard %d voted no", txID, sh.id)
		}
	}
	// The anchor's read is a one-hop relay.
	read := func(sh *Shard, key string) commit.Message {
		t.Helper()
		reply, err := sh.Query(relayMsg{N: 2, Client: 3, Hops: []relayHop{{Peer: core.ProcessID(sh.id + 1), Keys: []string{key}}}})
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	write("seed", a, "x", "old")
	write("seed", b, "y", "old")
	a.Commit("seed")
	b.Commit("seed")
	_, _, yver := b.readCommitted("y")

	// W prepared on both shards, committed on A only.
	write("W", a, "x", "new")
	write("W", b, "y", "new")
	a.Commit("W")

	if h := read(a, "x").(relayMsg).Hops[0]; h.Got.Vals[0] != "new" || !h.OK {
		t.Fatalf("x = %q ok=%v, want new and validated", h.Got.Vals[0], h.OK)
	}
	reply := read(b, "y")
	parked, ok := reply.(commit.Deferred)
	if !ok {
		t.Fatalf("the anchor read of y answered %T while W's intent is on it, want a commit.Deferred", reply)
	}
	var answers []commit.Message
	parked.Await(func(m commit.Message) { answers = append(answers, m) })
	if len(answers) != 0 {
		t.Fatal("the parked read of y was answered while W's intent is on it")
	}
	// A validation of the pre-image, had it been read, is still refused.
	if v, _ := b.Query(validation(b, []string{"y"}, []uint64{yver})); v.(relayMsg).Hops[0].OK {
		t.Fatal("shard B validated old y while W's write intent is on it")
	}

	b.Commit("W")
	if len(answers) != 1 {
		t.Fatalf("B's apply of W answered the parked read %d times, want once", len(answers))
	}
	if h := answers[0].(relayMsg).Hops[0]; h.Got.Vals[0] != "new" || !h.OK {
		t.Fatalf("the parked read answered y = %q ok=%v, want W's new and validated", h.Got.Vals[0], h.OK)
	}
	if n := waiting(b); n != 0 {
		t.Fatalf("shard B keeps %d waiters after the apply", n)
	}
}

// waiting counts the reads parked on sh's waiter lists.
func waiting(sh *Shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for _, ws := range sh.waiters {
		n += len(ws)
	}
	return n
}

// TestRelayParksAtSecondHop walks a two-hop relay, A then B, that A forwards
// before a writer W prepares and that B, meeting W's intent, parks until B
// applies W. If W wrote y only, the relay comes back with both hops
// validated: W's y is all B answers, and x is untouched. If W wrote x as
// well and is applied on B only, B's re-run reads W's y, but A's validation
// on the way back meets W's intent on x and refuses — parking at B does not
// make old x and new y a committed read. The shards are called directly, so
// only B's Commit can answer the parked hop.
func TestRelayParksAtSecondHop(t *testing.T) {
	t.Parallel()
	const client = 3
	for _, tc := range []struct {
		name  string
		wantX bool // W leaves x alone, so A validates it on the way back
	}{
		{name: "W writes y", wantX: true},
		{name: "W writes x and y"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, b := NewShard(0), NewShard(1)
			write := func(txID string, sh *Shard, key, val string) {
				t.Helper()
				if err := sh.Stage(txID, footprintMsg{WriteKeys: []string{key}, WriteVals: []string{val}, WriteDels: []bool{false}}); err != nil {
					t.Fatal(err)
				}
				if !sh.Prepare(txID) {
					t.Fatalf("%s: shard %d voted no", txID, sh.id)
				}
			}
			write("seed", a, "x", "old")
			write("seed", b, "y", "old")
			a.Commit("seed")
			b.Commit("seed")

			reply, err := a.Query(relayMsg{N: 2, Client: client, Hops: []relayHop{{Peer: 1, Keys: []string{"x"}}, {Peer: 2, Keys: []string{"y"}}}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantX {
				write("W", b, "y", "new")
			} else {
				write("W", a, "x", "new")
				write("W", b, "y", "new")
			}
			reply, err = b.Query(reply)
			if err != nil {
				t.Fatal(err)
			}
			parked, ok := reply.(commit.Deferred)
			if !ok {
				t.Fatalf("B answered %T while W's intent is on y, want a commit.Deferred", reply)
			}
			var answers []commit.Message
			parked.Await(func(m commit.Message) { answers = append(answers, m) })
			if len(answers) != 0 {
				t.Fatal("the parked hop was answered while W's intent is on y")
			}
			b.Commit("W")
			if len(answers) != 1 {
				t.Fatalf("B's apply of W answered the parked hop %d times, want once", len(answers))
			}
			back, ok := answers[0].(relayMsg)
			if !ok || back.Next() != 1 {
				t.Fatalf("B's re-run answered %#v, want the relay headed back to A", answers[0])
			}
			reply, err = a.Query(back)
			if err != nil {
				t.Fatal(err)
			}
			m := reply.(relayMsg)
			if m.Next() != client {
				t.Fatalf("A passed the relay to %d, want the client", m.Next())
			}
			x, y := m.Hops[0], m.Hops[1]
			if x.Got.Vals[0] != "old" || y.Got.Vals[0] != "new" || !y.OK {
				t.Fatalf("read x=%q y=%q (y ok=%v), want old x and W's y, validated", x.Got.Vals[0], y.Got.Vals[0], y.OK)
			}
			if x.OK != tc.wantX {
				t.Fatalf("A's validation of old x on the way back = %v, want %v", x.OK, tc.wantX)
			}
			if n := waiting(b); n != 0 {
				t.Fatalf("shard B keeps %d waiters after the apply", n)
			}
		})
	}
}

// TestRelayValidatesOnTheWayBack walks a two-hop relay, A then B, through
// the gap in which a writer W is applied on B and still prepared on A. A
// reads old x on the way out; W prepares on both shards and applies on B;
// B, the last hop, reads W's y with no intent on it, so its read is its
// validation. Only A's closing validation, on the way back, can tell that
// old x and new y do not belong together — and it does, by W's intent on
// x. The reader must then validate A at Submit, which refuses too.
//
// Mutation note: with A's validation moved before its forward (in
// Shard.relay, the way-out branch validating right after its read), A says
// yes before W prepared, the client skips A's validation and commits the
// fractured read.
func TestRelayValidatesOnTheWayBack(t *testing.T) {
	t.Parallel()
	a, b := NewShard(0), NewShard(1)
	write := func(txID string, sh *Shard, key, val string) {
		t.Helper()
		if err := sh.Stage(txID, footprintMsg{WriteKeys: []string{key}, WriteVals: []string{val}, WriteDels: []bool{false}}); err != nil {
			t.Fatal(err)
		}
		if !sh.Prepare(txID) {
			t.Fatalf("%s: shard %d voted no", txID, sh.id)
		}
	}
	hop := func(sh *Shard, m commit.Message, next core.ProcessID) relayMsg {
		t.Helper()
		reply, err := sh.Query(m)
		if err != nil {
			t.Fatal(err)
		}
		r := reply.(relayMsg)
		if r.Next() != next {
			t.Fatalf("shard %d passed the relay to %d, want %d", sh.id, r.Next(), next)
		}
		return r
	}
	write("seed", a, "x", "old")
	write("seed", b, "y", "old")
	a.Commit("seed")
	b.Commit("seed")

	const client = 3
	m := relayMsg{N: 2, Client: client, Hops: []relayHop{{Peer: 1, Keys: []string{"x"}}, {Peer: 2, Keys: []string{"y"}}}}
	m = hop(a, m, 2)
	write("W", a, "x", "new")
	write("W", b, "y", "new")
	b.Commit("W")
	m = hop(b, m, 1)
	m = hop(a, m, client)

	x, y := m.Hops[0], m.Hops[1]
	if x.Got.Vals[0] != "old" || y.Got.Vals[0] != "new" {
		t.Fatalf("read x=%q y=%q, want the fractured old/new", x.Got.Vals[0], y.Got.Vals[0])
	}
	if !y.OK {
		t.Fatal("B's read of applied y with no intent on it is not its validation")
	}
	if x.OK {
		t.Fatal("A validated old x on the way back while W's write intent is on it: a fractured read commits")
	}
	if a.validate([]string{"x"}, x.Got.Vers) {
		t.Fatal("A validated old x at Submit while W's write intent is on it")
	}
	a.Commit("W")
	if a.validate([]string{"x"}, x.Got.Vers) {
		t.Fatal("A validated a version W overwrote")
	}
}

// TestRelayedAuditSeesConstantTotal is TestAnchoredAuditSeesConstantTotal
// with two far shards, P2 and P4: every audit reads P1 and P3, then relays
// its read through P2 and P4, which validate among themselves, and
// validates only the near shards. Transfers between P2 and P4 apply on the
// two at different times as much as those between a near and a far shard.
//
// Not parallel: the test lives on millisecond windows, and its seed and
// transfers need INBAC's votes inside U.
func TestRelayedAuditSeesConstantTotal(t *testing.T) {
	const n = 4
	ms := time.Millisecond
	profile := &live.NetProfile{
		Name: "test-far-p2-p4", Regions: []string{"near", "client", "far"},
		OneWay: [][]time.Duration{
			{0, ms / 2, 6 * ms},
			{ms / 2, 0, 3 * ms / 2},
			{6 * ms, 3 * ms / 2, 0},
		},
		Jitter: ms,
	}
	for _, id := range []core.ProcessID{1, 3} {
		profile.Pin(id, "near")
	}
	profile.Pin(n+1, "client")
	for _, id := range []core.ProcessID{2, 4} {
		profile.Pin(id, "far")
	}
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 28 * ms, Net: profile}
	s, _, _ := remoteDeployment(t, n, opts)
	s.ConfigureReadCache(0, 0)
	auditUnderTransfers(t, s, opts.Timeout)
}

// TestAnchoredAuditSeesConstantTotal is TestReadOnlyAuditSeesConstantTotal
// with every audit anchored: P2 alone sits in a far region, the client's read
// cache is off, and so every audit reads the three near shards, then P2
// fresh, and validates only the near shards. The client sits between the
// regions, closer to P2 than the near peers are: a transfer between P2 and a
// near shard, coordinated near the client, is applied on the near shard
// about 6 ms before P2, while an audit's read reaches P2 1.5 ms after it
// left. An audit that read the near shard in that gap must meet the
// transfer's intent in its read of P2.
//
// Mutation note: with the held check deleted from remoteBackend.readMulti,
// such an audit commits with a wrong total.
//
// Not parallel: the test lives on millisecond windows, and its seed and
// transfers need INBAC's votes inside U.
func TestAnchoredAuditSeesConstantTotal(t *testing.T) {
	const n = 4
	ms := time.Millisecond
	profile := &live.NetProfile{
		Name: "test-far-p2", Regions: []string{"near", "client", "far"},
		OneWay: [][]time.Duration{
			{0, ms / 2, 6 * ms},
			{ms / 2, 0, 3 * ms / 2},
			{6 * ms, 3 * ms / 2, 0},
		},
		Jitter: ms,
	}
	for _, id := range []core.ProcessID{1, 3, 4} {
		profile.Pin(id, "near")
	}
	profile.Pin(n+1, "client")
	profile.Pin(2, "far")
	// P2's vote reaches the near peers about 14 ms after they start: U
	// leaves that much again for a loaded machine.
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 28 * ms, Net: profile}
	s, _, _ := remoteDeployment(t, n, opts)
	s.ConfigureReadCache(0, 0)
	auditUnderTransfers(t, s, opts.Timeout)
}

// TestReadOnlyAuditSeesConstantTotal is the read-only contract end to end:
// while transfers move money between accounts on different shards, audits
// read every account in one GetMulti and commit with an empty write set. An
// audit that commits must have seen the constant total — a fractured read of
// a half-applied transfer shows as a wrong sum — and the run must contain
// both outcomes, a committed audit and a refused one.
func TestReadOnlyAuditSeesConstantTotal(t *testing.T) {
	t.Parallel()
	t.Run("local", func(t *testing.T) {
		t.Parallel()
		s := open(t, 4, commit.Options{})
		auditUnderTransfers(t, s, 25*time.Millisecond)
	})
	t.Run("remote", func(t *testing.T) {
		t.Parallel()
		// The jittered two-region net of TestRemoteNoStateLeaks: every envelope
		// is late by up to 6 ms on its own, so shards apply one transfer at
		// visibly different times.
		const n = 4
		profile := &live.NetProfile{
			Name: "test-jitter", Regions: []string{"a", "b"},
			OneWay: [][]time.Duration{{0, 0}, {0, 0}},
			Jitter: 6 * time.Millisecond,
		}
		profile.Pin(n+1, "b")
		opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 10 * time.Millisecond, Net: profile}
		s, _, _ := remoteDeployment(t, n, opts)
		auditUnderTransfers(t, s, opts.Timeout)
	})
}

// auditUnderTransfers runs two transfer workers and three auditors against s
// until the transfers are done; u is the store's timeout unit, which paces
// the transfers so that audits find gaps between them.
func auditUnderTransfers(t *testing.T, s *Store, u time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	const perShard, balance = 2, 100
	var accounts []string
	for _, ks := range keysAcrossShards(t, s.Shards(), perShard, "audit") {
		accounts = append(accounts, ks...)
	}
	commitSeed(t, ctx, s, func(seed *Txn) {
		for _, k := range accounts {
			seed.Put(k, strconv.Itoa(balance))
		}
	})
	// A read waits out the seed's intent, so no account reads as absent once
	// the seed committed; one that did would count as 0 and show as a wrong
	// total.
	want := balance * len(accounts)
	amount := func(v string, ok bool) int {
		n, err := strconv.Atoi(v)
		if ok && err != nil {
			t.Errorf("balance %q: %v", v, err)
		}
		return n
	}

	var transfers, audits, refused atomic.Int64
	var writers, auditors sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for k := 0; k < 24; k++ {
				// Neighbours in accounts sit on one shard; +perShard crosses.
				from := accounts[(w+3*k)%len(accounts)]
				to := accounts[(w+3*k+perShard)%len(accounts)]
				txn := s.Txn().WithContext(ctx)
				vals, oks, err := txn.GetMulti(from, to)
				if err != nil {
					t.Errorf("transfer read: %v", err)
					return
				}
				txn.Put(from, strconv.Itoa(amount(vals[0], oks[0])-1))
				txn.Put(to, strconv.Itoa(amount(vals[1], oks[1])+1))
				ok, err := txn.Commit(ctx)
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
				if ok {
					transfers.Add(1)
				}
				time.Sleep(3 * u)
			}
		}(w)
	}
	for a := 0; a < 3; a++ {
		auditors.Add(1)
		go func() {
			defer auditors.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				txn := s.Txn().WithContext(ctx)
				vals, oks, err := txn.GetMulti(accounts...)
				if err != nil {
					t.Errorf("audit read: %v", err)
					return
				}
				sum := 0
				for i, v := range vals {
					sum += amount(v, oks[i])
				}
				// A read waits out every prepared writer, so only a transfer
				// that prepares after an audit read can get the audit
				// refused: holding the reads before validating opens that
				// window.
				time.Sleep(u / 4)
				ok, err := txn.Commit(ctx)
				switch {
				case err != nil:
					t.Errorf("audit: %v", err)
					return
				case !ok:
					refused.Add(1)
				case sum != want:
					t.Errorf("a committed audit saw a total of %d, want %d: %v", sum, want, vals)
					return
				default:
					audits.Add(1)
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	auditors.Wait()
	if transfers.Load() == 0 || audits.Load() == 0 || refused.Load() == 0 {
		t.Errorf("%d transfers and %d audits committed, %d audits refused: the test needs all three",
			transfers.Load(), audits.Load(), refused.Load())
	}
	t.Logf("%d transfers, %d audits committed, %d refused", transfers.Load(), audits.Load(), refused.Load())
}
