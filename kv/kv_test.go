package kv

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/live"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func open(t *testing.T, shards int, opts commit.Options) *Store {
	t.Helper()
	if opts.Timeout == 0 {
		opts.Timeout = 25 * time.Millisecond
	}
	s, err := Open(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// seedTries bounds commitSeed's attempts.
const seedTries = 20

// commitSeed commits, on s, the transaction fill builds — a test's setup,
// which must commit — and returns it. INBAC may abort it on timing, a legal
// outcome on a loaded machine (a first TCP contact, or jitter near U): an
// abort is retried with a fresh Txn that fill builds again, under the same
// U, jitter and schedule, up to seedTries times. Any error fails the test at
// once.
func commitSeed(t *testing.T, ctx context.Context, s *Store, fill func(*Txn)) *Txn {
	t.Helper()
	for try := 1; ; try++ {
		txn := s.Txn()
		fill(txn)
		ok, err := txn.Commit(ctx)
		if err != nil {
			t.Fatalf("seed: %v", err)
		}
		if ok {
			return txn
		}
		if try == seedTries {
			t.Fatalf("the seed aborted %d times", try)
		}
	}
}

func TestPutGetDeleteAcrossTxns(t *testing.T) {
	t.Parallel()
	s := open(t, 4, commit.Options{})
	ctx := testCtx(t)

	commitSeed(t, ctx, s, func(w *Txn) {
		w.Put("a", "1")
		w.Put("b", "2")
		w.Put("c", "3") // keys hash to different shards; one atomic commit
	})

	commitSeed(t, ctx, s, func(r *Txn) {
		for key, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
			if got, ok := r.Get(key); !ok || got != want {
				t.Fatalf("Get(%q) = %q, %v; want %q", key, got, ok, want)
			}
		}
	})

	commitSeed(t, ctx, s, func(d *Txn) { d.Delete("b") })

	if _, ok := s.Get("b"); ok {
		t.Fatal("deleted key still visible")
	}
	if v, ok := s.Get("a"); !ok || v != "1" {
		t.Fatalf("non-transactional Get(a) = %q, %v", v, ok)
	}
}

func TestReadYourWrites(t *testing.T) {
	t.Parallel()
	s := open(t, 2, commit.Options{})
	ctx := testCtx(t)

	commitSeed(t, ctx, s, func(seed *Txn) { seed.Put("x", "old") })

	txn := s.Txn()
	txn.Put("x", "new")
	if v, ok := txn.Get("x"); !ok || v != "new" {
		t.Fatalf("read-your-writes: got %q, %v", v, ok)
	}
	txn.Delete("x")
	if _, ok := txn.Get("x"); ok {
		t.Fatal("own tombstone must read as a miss")
	}
	// Repeated reads of an untouched key observe one consistent value.
	other := s.Txn()
	v1, _ := other.Get("x")
	v2, _ := other.Get("x")
	if v1 != v2 {
		t.Fatalf("cached read changed: %q vs %q", v1, v2)
	}
}

// TestStaleReadAborts: a transaction whose read was overwritten by a
// concurrent commit must abort at Prepare (version validation).
func TestStaleReadAborts(t *testing.T) {
	t.Parallel()
	s := open(t, 2, commit.Options{})
	ctx := testCtx(t)

	commitSeed(t, ctx, s, func(seed *Txn) { seed.Put("k", "0") })

	stale := s.Txn()
	stale.Get("k") // observes version 1

	commitSeed(t, ctx, s, func(winner *Txn) { winner.Put("k", "1") })

	stale.Put("k", "2") // would be a lost update over winner's write
	ok, err := stale.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("transaction with a stale read must abort")
	}
	if v, _ := s.Get("k"); v != "1" {
		t.Fatalf("winner's write lost: k=%q", v)
	}
}

// TestWriteWriteConflict: two racing writers of one key — at most one may
// commit, and the key holds a value only a committed transaction wrote.
func TestWriteWriteConflict(t *testing.T) {
	t.Parallel()
	s := open(t, 4, commit.Options{})
	ctx := testCtx(t)

	const racers = 8
	results := make([]bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := s.Txn()
			txn.Get("hot")
			txn.Put("hot", fmt.Sprintf("writer-%d", i))
			ok, err := txn.Commit(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ok
		}(i)
	}
	wg.Wait()

	winners := 0
	for _, ok := range results {
		if ok {
			winners++
		}
	}
	if winners == 0 {
		t.Fatal("serial-equivalent executions exist, yet nobody committed")
	}
	v, ok := s.Get("hot")
	if !ok {
		t.Fatal("committed write missing")
	}
	found := false
	for i, won := range results {
		if won && v == fmt.Sprintf("writer-%d", i) {
			found = true
		}
	}
	if !found {
		t.Fatalf("value %q was not written by any committed transaction", v)
	}
}

func TestEmptyTxnCommitsTrivially(t *testing.T) {
	t.Parallel()
	s := open(t, 2, commit.Options{})
	ok, err := s.Txn().Commit(testCtx(t))
	if err != nil || !ok {
		t.Fatalf("empty txn: ok=%v err=%v", ok, err)
	}
}

func TestTxnSingleUse(t *testing.T) {
	t.Parallel()
	s := open(t, 2, commit.Options{})
	ctx := testCtx(t)
	txn := commitSeed(t, ctx, s, func(txn *Txn) { txn.Put("k", "v") })
	if _, err := txn.Submit(ctx); err == nil {
		t.Fatal("resubmitting a transaction must error")
	}
	// Operations after Submit would be silently dropped (the footprint was
	// already copied to the shards); they must panic instead.
	defer func() {
		if recover() == nil {
			t.Fatal("Put on a submitted transaction must panic")
		}
	}()
	txn.Put("k", "late")
}

func TestOpenValidation(t *testing.T) {
	t.Parallel()
	if _, err := Open(1, commit.Options{}); err == nil {
		t.Fatal("Open(1) must error: every shard is a commit participant")
	}
	if _, err := Open(4, commit.Options{Protocol: "nope"}); err == nil {
		t.Fatal("unknown protocol must error")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	t.Parallel()
	s, err := Open(2, commit.Options{Timeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	txn := s.Txn()
	txn.Put("k", "v")
	if _, err := txn.Commit(testCtx(t)); err == nil {
		t.Fatal("commit on a closed store must error")
	}
	// The staged footprint must not leak after the error.
	sh := s.shardFor("k")
	sh.mu.Lock()
	staged := len(sh.staged)
	locks := len(sh.locks)
	sh.mu.Unlock()
	if staged != 0 || locks != 0 {
		t.Fatalf("shard state leaked after failed commit: staged=%d locks=%d", staged, locks)
	}
}

// TestNoStateLeaks: after a mix of committed and aborted transactions
// resolve, no shard retains staged footprints or intents.
//
// A commit returns once the client learns the decision; a shard that has
// yet to hear it applies it a little later, at the latest when its own
// timeout fires and it asks for it. So the shards are checked once they
// have had 20 U to settle, and not before.
func TestNoStateLeaks(t *testing.T) {
	t.Parallel()
	opts := commit.Options{Timeout: 25 * time.Millisecond}
	s := open(t, 4, opts)
	ctx := testCtx(t)
	committed, aborted, err := runWorkload(ctx, s, Workload{Keys: 16, Theta: 0.9, ReadFrac: 0.5, OpsPerTxn: 4}, 128, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if committed+aborted != 128 {
		t.Fatalf("decided %d+%d, want 128", committed, aborted)
	}
	held := func(sh *Shard) (staged, locks int) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return len(sh.staged), len(sh.locks)
	}
	for deadline := time.Now().Add(20 * opts.Timeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		settled := true
		for _, sh := range s.local {
			if staged, locks := held(sh); staged != 0 || locks != 0 {
				settled = false
			}
		}
		if settled {
			break
		}
	}
	for i, sh := range s.local {
		if staged, locks := held(sh); staged != 0 || locks != 0 {
			t.Errorf("shard %d leaked: staged=%d locks=%d", i, staged, locks)
		}
	}
}

// TestExpiredLocalSubmitKeepsIntents: a local transaction whose context ends
// while its peers still run keeps its footprint until they decide. T1 writes
// k with every envelope late by U/4, so its run decides commit, but its
// context is cancelled right after Submit and its future resolves with that
// error. T2 then writes k while T1 is undecided: its run comes after T1's on
// k's shard, meets T1's write intent and votes no, and k ends up holding T1's
// value. Releasing T1's footprint when its future failed would let T2 commit
// and drop T1's committed write. The delay is U/4, not more: the client's
// stage+go and the coordinator's begin come before the protocol's own
// envelopes, and a begin skew of U/2 on top of U/2 envelopes pushes INBAC
// past its timers, so T1 would legitimately abort.
func TestExpiredLocalSubmitKeepsIntents(t *testing.T) {
	t.Parallel()
	const u = 100 * time.Millisecond
	s := open(t, 2, commit.Options{Timeout: u})
	s.cluster.Mesh().SetShaper(live.LinkShaper{Delay: func(live.Envelope) time.Duration { return u / 4 }})
	ctx := testCtx(t)

	t1ctx, cancel := context.WithCancel(ctx)
	t1 := s.Txn()
	t1.Put("k", "t1")
	p1, err := t1.Submit(t1ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if ok, err := p1.Wait(ctx); ok || err == nil {
		t.Fatalf("T1: ok=%v err=%v, want its context's error", ok, err)
	}

	t2 := s.Txn()
	t2.Put("k", "t2")
	if ok, err := t2.Commit(ctx); ok || err != nil {
		t.Fatalf("T2 over undecided T1's key: ok=%v err=%v, want an abort", ok, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		v, _ := s.Get("k")
		if v == "t1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("k = %q, want T1's committed value", v)
		}
	}
}

// TestLocalReadWaitsForWriter: a local store's read of a key a prepared
// writer holds waits for the writer's decision instead of returning the
// pre-image. W is prepared on k's shard by hand, so nothing but the test's
// own Commit decides it; the Get is seen parked on the shard's waiter list,
// and only then is W applied.
func TestLocalReadWaitsForWriter(t *testing.T) {
	t.Parallel()
	s := open(t, 2, commit.Options{})
	const k = "k"
	sh := s.shardFor(k)
	if err := sh.Stage("W", footprintMsg{WriteKeys: []string{k}, WriteVals: []string{"w"}, WriteDels: []bool{false}}); err != nil {
		t.Fatal(err)
	}
	if !sh.Prepare("W") {
		t.Fatal("W: shard voted no")
	}
	type got struct {
		v  string
		ok bool
	}
	read := make(chan got, 1)
	go func() {
		v, ok := s.Get(k)
		read <- got{v, ok}
	}()
	for waiting(sh) == 0 {
		runtime.Gosched()
	}
	select {
	case r := <-read:
		t.Fatalf("Get returned %q, %v while W's intent is on k", r.v, r.ok)
	default:
	}
	sh.Commit("W")
	if r := <-read; !r.ok || r.v != "w" {
		t.Fatalf("Get = %q, %v; want W's value", r.v, r.ok)
	}
	if n := waiting(sh); n != 0 {
		t.Fatalf("the shard keeps %d waiters after the apply", n)
	}
}

// runWorkload commits txns transactions generated from w through s from
// workers concurrent committers, worker i seeded with seed+i, and counts the
// outcomes: an abort is counted, not retried, and the first error ends the
// run.
func runWorkload(ctx context.Context, s *Store, w Workload, txns, workers int, seed int64) (committed, aborted int, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range workers {
		gen, gerr := w.Generator(seed + int64(i))
		if gerr != nil {
			return 0, 0, gerr
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < txns; j += workers {
				txn := s.Txn().WithContext(ctx)
				gen.Apply(txn, gen.NextTxn())
				ok, cerr := txn.Commit(ctx)
				mu.Lock()
				switch {
				case cerr != nil:
					if err == nil {
						err = cerr
					}
				case ok:
					committed++
				default:
					aborted++
				}
				stop := err != nil
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	return committed, aborted, err
}

func TestWorkloadGeneratorDeterministic(t *testing.T) {
	t.Parallel()
	w := Workload{Keys: 64, Theta: 0.9, ReadFrac: 0.5, OpsPerTxn: 4}
	a, err := w.Generator(42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.Generator(42)
	for i := 0; i < 50; i++ {
		ta, tb := a.NextTxn(), b.NextTxn()
		if fmt.Sprint(ta) != fmt.Sprint(tb) {
			t.Fatalf("txn %d diverged: %v vs %v", i, ta, tb)
		}
		if len(ta) != 4 {
			t.Fatalf("txn %d has %d ops, want 4", i, len(ta))
		}
		seen := map[string]bool{}
		for _, op := range ta {
			if seen[op.Key] {
				t.Fatalf("txn %d repeats key %s", i, op.Key)
			}
			seen[op.Key] = true
		}
	}
}

// TestZipfSkew: higher theta must concentrate draws on the hottest key.
func TestZipfSkew(t *testing.T) {
	t.Parallel()
	const draws = 20000
	freqTop := func(theta float64) float64 {
		g, err := Workload{Keys: 128, Theta: theta, OpsPerTxn: 1}.Generator(1)
		if err != nil {
			t.Fatal(err)
		}
		top := 0
		for i := 0; i < draws; i++ {
			if g.NextTxn()[0].Key == "k-0" {
				top++
			}
		}
		return float64(top) / draws
	}
	uniform := freqTop(0)
	hot := freqTop(0.99)
	if uniform > 0.03 {
		t.Fatalf("uniform top-key frequency %f suspiciously high", uniform)
	}
	if hot < 5*uniform {
		t.Fatalf("theta=0.99 top-key frequency %f should dwarf uniform %f", hot, uniform)
	}
}

func TestWorkloadValidation(t *testing.T) {
	t.Parallel()
	for _, w := range []Workload{
		{Theta: 1.0},
		{Theta: -0.1},
		{ReadFrac: 1.5},
		{Keys: -1},
		{OpsPerTxn: -2},
	} {
		if _, err := w.Generator(1); err == nil {
			t.Errorf("workload %+v must be rejected", w)
		}
	}
}
