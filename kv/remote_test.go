package kv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/live"
)

// kvAddrs grabs n distinct loopback addresses by binding and releasing
// ephemeral ports (small reuse race, fine on loopback in tests).
func kvAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// keyForShard returns a key that hashes to shard `want` of n.
func keyForShard(t *testing.T, want, n int) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if shardIndex(k, n) == want {
			return k
		}
	}
	t.Fatalf("no key found for shard %d/%d", want, n)
	return ""
}

// remoteDeployment boots n shard peers on real sockets plus a client store.
func remoteDeployment(t *testing.T, n int, opts commit.Options) (*Store, []*commit.Peer, []string) {
	t.Helper()
	addrs := kvAddrs(t, n)
	peers := make([]*commit.Peer, n)
	for i := 0; i < n; i++ {
		p, err := ServeShard(i, addrs, opts)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		t.Cleanup(p.Close)
	}
	s, err := OpenRemote(n+1, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, peers, addrs
}

func TestRemoteOpenValidation(t *testing.T) {
	t.Parallel()
	if _, err := Open(1, commit.Options{}); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("Open(1): err = %v, want ErrTooFewShards", err)
	}
	if _, err := OpenRemote(2, []string{"127.0.0.1:1"}, commit.Options{}); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("OpenRemote(1 addr): err = %v, want ErrTooFewShards", err)
	}
	if _, err := ServeShard(0, []string{"127.0.0.1:1"}, commit.Options{}); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("ServeShard(1 addr): err = %v, want ErrTooFewShards", err)
	}
	addrs := kvAddrs(t, 2)
	if _, err := ServeShard(2, addrs, commit.Options{}); err == nil {
		t.Fatal("ServeShard with index out of range must error")
	}
	// A client ID inside the peer range is refused at the commit layer.
	if _, err := OpenRemote(1, addrs, commit.Options{}); !errors.Is(err, commit.ErrPeerID) {
		t.Fatalf("OpenRemote(clientID=1): err = %v, want commit.ErrPeerID", err)
	}
}

func TestProtocolAccessor(t *testing.T) {
	t.Parallel()
	s, err := Open(2, commit.Options{Timeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Protocol(); got != commit.INBAC {
		t.Fatalf("default Protocol() = %q, want %q", got, commit.INBAC)
	}
	s2, err := Open(2, commit.Options{Protocol: commit.TwoPC, Timeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Protocol(); got != commit.TwoPC {
		t.Fatalf("Protocol() = %q, want %q", got, commit.TwoPC)
	}
}

// TestRemoteBankConservation is the distributed bank invariant: concurrent
// transfer transactions from a TCP client against shard peers on real
// sockets must conserve the total balance, whatever commits or aborts.
func TestRemoteBankConservation(t *testing.T) {
	t.Parallel()
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	s, _, _ := remoteDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const accounts = 8
	const initial = 100
	acct := func(i int) string { return fmt.Sprintf("acct-%d", i) }
	for i := 0; i < accounts; i++ {
		commitSeed(t, ctx, s, func(txn *Txn) { txn.Put(acct(i), strconv.Itoa(initial)) })
	}

	const workers = 4
	const perWorker = 20
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for k := 0; k < perWorker; k++ {
				a, b := rng.Intn(accounts), rng.Intn(accounts)
				if a == b {
					continue
				}
				txn := s.Txn()
				av, okA, errA := txn.Read(acct(a))
				bv, okB, errB := txn.Read(acct(b))
				if errA != nil || errB != nil || !okA || !okB {
					continue // infra hiccup: abandon the builder
				}
				ai, _ := strconv.Atoi(av)
				bi, _ := strconv.Atoi(bv)
				amt := 1 + rng.Intn(5)
				txn.Put(acct(a), strconv.Itoa(ai-amt))
				txn.Put(acct(b), strconv.Itoa(bi+amt))
				if ok, err := txn.Commit(ctx); ok && err == nil {
					committed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if committed.Load() == 0 {
		t.Fatal("no transfer committed")
	}
	sum := 0
	for i := 0; i < accounts; i++ {
		v, ok, err := s.Read(acct(i))
		if err != nil || !ok {
			t.Fatalf("final read %s: ok=%v err=%v", acct(i), ok, err)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("balance %s = %q", acct(i), v)
		}
		sum += n
	}
	if sum != accounts*initial {
		t.Fatalf("money not conserved: sum=%d want=%d (%d transfers committed)", sum, accounts*initial, committed.Load())
	}
}

// TestRemoteNoStateLeaks: once every transaction resolved, no shard holds
// anything of it, on a network built to break the one-leg commit's ordering.
// Every envelope is delayed by up to 6 ms on its own, and the client sits
// with P2 and P4, a millisecond nearer than P1 and P3, so every transfer is
// coordinated by P2 or P4 and P1 — the INBAC backup every vote goes to — is
// in a race between those votes and the begin carrying its slice, which the
// votes win about every other time. Now and then a begin is late enough (U
// is 10 ms) for its peer to give up on it.
//
// After the transfers, a contended workload (Zipf 0.9 over 16 keys, half its
// operations reads, so some transactions are read-only and commit by
// validation) runs 128 transactions, every one of which must decide. It runs
// after the transfers, not beside them, so the test's peak load is that of
// either part alone: the tests running in parallel keep their timing.
//
// Whatever each transaction's fate, once the network is quiet no shard holds
// a staged footprint, an intent or a parked read, the client's read cache
// counts no undecided writer, and money is conserved — it is not if a peer
// votes yes on a footprint that has yet to arrive.
func TestRemoteNoStateLeaks(t *testing.T) {
	t.Parallel()
	const n = 4
	profile := &live.NetProfile{
		Name: "test-jitter", Regions: []string{"a", "b"},
		OneWay: [][]time.Duration{{0, time.Millisecond}, {time.Millisecond, 0}},
		Jitter: 6 * time.Millisecond,
	}
	profile.Pin(n+1, "b")
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 10 * time.Millisecond, Net: profile}
	addrs := kvAddrs(t, n)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = NewShard(i)
		p, err := commit.NewPeer(i+1, addrs, shards[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
	}
	s, err := OpenRemote(n+1, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Accounts start absent, which reads as a balance of 0. Each worker moves
	// money between a pair of its own — one account on shard 0 or 2, one on
	// shard 1 or 3 — so no transfer conflicts and every abort is the
	// network's doing.
	const workers, perWorker = 8, 12
	byShard := keysAcrossShards(t, n, workers, "leak")
	balance := func(v string, ok bool) int {
		b, err := strconv.Atoi(v)
		if ok && err != nil {
			t.Errorf("balance %q: %v", v, err)
		}
		return b
	}
	var committed, aborted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from, to := byShard[w%2*2][w], byShard[w%2*2+1][w]
			for k := 0; k < perWorker; k++ {
				txn := s.Txn().WithContext(ctx)
				vals, oks, err := txn.GetMulti(from, to)
				if err != nil {
					t.Errorf("read %s, %s: %v", from, to, err)
					return
				}
				txn.Put(from, strconv.Itoa(balance(vals[0], oks[0])-1))
				txn.Put(to, strconv.Itoa(balance(vals[1], oks[1])+1))
				ok, err := txn.Commit(ctx)
				switch {
				case err != nil:
					t.Errorf("transfer: %v", err)
					return
				case ok:
					committed.Add(1)
				default:
					aborted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if committed.Load() == 0 || aborted.Load() == 0 {
		t.Errorf("%d transfers committed and %d aborted: the test needs both", committed.Load(), aborted.Load())
	}
	wc, wa, err := runWorkload(ctx, s, Workload{Keys: 16, Theta: 0.9, ReadFrac: 0.5, OpsPerTxn: 4}, 128, 16, 7)
	if err != nil {
		t.Fatalf("contended workload: %v", err)
	}
	if wc+wa != 128 {
		t.Errorf("contended workload decided %d+%d, want 128", wc, wa)
	}
	// Quiescence: the last envelopes land within the jitter bound and the
	// slowest transaction ends a few U after its last peer joined. Only then
	// is what the shards hold a final state.
	time.Sleep(profile.Jitter + 20*opts.Timeout)

	sum := 0
	for i, sh := range shards {
		sh.mu.Lock()
		staged, locks, waiters := len(sh.staged), len(sh.locks), len(sh.waiters)
		sh.mu.Unlock()
		if staged != 0 || locks != 0 || waiters != 0 {
			t.Errorf("shard %d leaked: staged=%d locks=%d waiter lists=%d", i, staged, locks, waiters)
		}
		for _, key := range byShard[i] {
			v, ok, err := s.Read(key)
			if err != nil {
				t.Fatalf("final read %s: %v", key, err)
			}
			sum += balance(v, ok)
		}
	}
	if sum != 0 {
		t.Errorf("money not conserved: the balances sum to %d, want 0 (%d transfers committed, %d aborted)",
			sum, committed.Load(), aborted.Load())
	}
	if n := writingCount(s.b.cache); n != 0 {
		t.Errorf("the client still counts an undecided writer of %d keys", n)
	}
}

// TestRemotePeerCrashAndRedial: a transaction against a crashed shard owner
// must resolve (abort or error), never hang; after the peer restarts on the
// same address, the client's lazy redial heals and transactions commit
// again.
func TestRemotePeerCrashAndRedial(t *testing.T) {
	t.Parallel()
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 10 * time.Millisecond}
	addrs := kvAddrs(t, 2)
	p0, err := ServeShard(0, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := ServeShard(1, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p1.Close)
	s, err := OpenRemote(3, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	k0 := keyForShard(t, 0, 2)
	k1 := keyForShard(t, 1, 2)
	commitSeed(t, ctx, s, func(seed *Txn) {
		seed.Put(k0, "1")
		seed.Put(k1, "1")
	})

	p0.Close() // crash shard 0's owner mid-deployment

	// Cross-shard transaction against the dead owner: the future must
	// resolve — NBAC validity forbids commit without its vote.
	txn := s.Txn()
	txn.Put(k0, "2")
	txn.Put(k1, "2")
	done := make(chan struct{})
	var ok bool
	go func() {
		defer close(done)
		ok, err = txn.Commit(ctx)
	}()
	select {
	case <-done:
		if ok && err == nil {
			t.Fatal("transaction committed although shard 0's owner was down")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("transaction against a crashed peer never resolved")
	}

	// Restart on the same address; the next send to it, from the client or
	// from P2, redials, and P1 answers the client on the new connection.
	p0b, err := ServeShard(0, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p0b.Close)

	deadline := time.Now().Add(60 * time.Second)
	for {
		txn := s.Txn()
		txn.Put(k0, "3")
		txn.Put(k1, "3")
		if ok, err := txn.Commit(ctx); ok && err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no transaction committed after the peer restarted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v, _, err := s.Read(k0); err != nil || v != "3" {
		t.Fatalf("post-restart read: %q err=%v", v, err)
	}
}
