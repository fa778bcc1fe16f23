package kv

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// keysAcrossShards returns count distinct keys per shard, prefix-tagged.
func keysAcrossShards(t *testing.T, n, count int, prefix string) [][]string {
	t.Helper()
	out := make([][]string, n)
	for i := 0; ; i++ {
		if i > 100_000 {
			t.Fatal("keyspace exhausted before covering every shard")
		}
		k := fmt.Sprintf("%s-%d", prefix, i)
		si := shardIndex(k, n)
		if len(out[si]) < count {
			out[si] = append(out[si], k)
		}
		full := true
		for _, ks := range out {
			if len(ks) < count {
				full = false
			}
		}
		if full {
			return out
		}
	}
}

// TestRemoteGetMultiFanOut: one GetMulti spanning every shard must return
// every key correctly and pay exactly ONE WAN leg (the per-shard queries fan
// out in parallel), where per-key Gets paid one leg each. Not parallel: it
// asserts on global counter deltas.
func TestRemoteGetMultiFanOut(t *testing.T) {
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	s, _, _ := remoteDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	byShard := keysAcrossShards(t, 3, 2, "fan")
	want := make(map[string]string)
	for si, ks := range byShard {
		for j, k := range ks {
			want[k] = fmt.Sprintf("v-%d-%d", si, j)
		}
	}
	commitSeed(t, ctx, s, func(seed *Txn) {
		for k, v := range want {
			seed.Put(k, v)
		}
	})

	var all []string
	for _, ks := range byShard {
		all = append(all, ks...)
	}
	all = append(all, all[0]) // duplicate: GetMulti must tolerate and agree
	legs0 := obs.M.CounterValue("kv.remote.legs")
	txn := s.Txn().WithContext(ctx)
	vals, oks, err := txn.GetMulti(all...)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(all) || len(oks) != len(all) {
		t.Fatalf("GetMulti returned %d/%d answers for %d keys", len(vals), len(oks), len(all))
	}
	for i, k := range all {
		if !oks[i] || vals[i] != want[k] {
			t.Fatalf("key %q = (%q,%v), want (%q,true)", k, vals[i], oks[i], want[k])
		}
	}
	if d := obs.M.CounterValue("kv.remote.legs") - legs0; d != 1 {
		t.Fatalf("cross-shard GetMulti paid %d legs, want 1 (parallel fan-out)", d)
	}

	// Absent keys and pending writes resolve without extra confusion.
	txn.Put("fan-pending", "local")
	vals, oks, err = txn.GetMulti("fan-pending", "fan-definitely-absent-key")
	if err != nil {
		t.Fatal(err)
	}
	if !oks[0] || vals[0] != "local" {
		t.Fatalf("pending write read back as (%q,%v)", vals[0], oks[0])
	}
	if oks[1] {
		t.Fatalf("absent key reported present (%q)", vals[1])
	}
}

// TestRemoteCommitLegs pins the WAN-leg cost of the commit path: ONE client
// leg whether the transaction touches one shard or all of them (every
// footprint rides the stage+go message). A footprint over the message budget
// has no other way to travel: Submit refuses it with commit.ErrStageTooLarge
// before anything is sent, so no leg is paid and no shard hears of it. A
// regression here re-adds a WAN round trip. Not parallel: it asserts on
// global counter deltas.
func TestRemoteCommitLegs(t *testing.T) {
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	s, spies := spyDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	keys := keysAcrossShards(t, 3, 3, "legs")

	// Oversize first, while nothing else reaches the shards: two values of
	// 200 KiB exceed the 256 KiB budget together.
	big := strings.Repeat("x", 200<<10)
	txn := s.Txn()
	txn.Put(keys[0][2], big)
	txn.Put(keys[1][2], big)
	legs0 := obs.M.CounterValue("kv.remote.legs")
	if _, err := txn.Submit(ctx); !errors.Is(err, commit.ErrStageTooLarge) {
		t.Fatalf("oversize Submit: err = %v, want commit.ErrStageTooLarge", err)
	}
	if d := obs.M.CounterValue("kv.remote.legs") - legs0; d != 0 {
		t.Fatalf("a refused oversize write paid %d legs, want 0", d)
	}
	time.Sleep(4 * opts.Timeout) // what a sent footprint would have reached by now
	for i, sp := range spies {
		sp.mu.Lock()
		staged, locks := len(sp.staged), len(sp.locks)
		sp.mu.Unlock()
		if n := sp.commitPath.Load(); n != 0 || staged != 0 || locks != 0 {
			t.Errorf("shard %d after a refused submit: %d commit-path calls, staged=%d locks=%d; want none",
				i, n, staged, locks)
		}
	}

	// Keys of its own for every case: a shard other than the coordinator's may
	// still hold the previous case's write intents when the client has its
	// result, and would vote no on a second write of the key.
	for i, tc := range []struct {
		name   string
		shards []int
	}{
		{"single-shard", []int{0}},
		{"cross-shard", []int{0, 1, 2}},
	} {
		txn := s.Txn()
		for _, sh := range tc.shards {
			txn.Put(keys[sh][i], tc.name)
		}
		legs0 := obs.M.CounterValue("kv.remote.legs")
		if ok, err := txn.Commit(ctx); !ok || err != nil {
			t.Fatalf("%s txn: ok=%v err=%v", tc.name, ok, err)
		}
		if d := obs.M.CounterValue("kv.remote.legs") - legs0; d != 1 {
			t.Fatalf("%s blind write paid %d legs, want 1", tc.name, d)
		}
	}
}

// spyShard is a shard that counts the commit-path calls, the reads and the
// validation queries reaching it and can be told to leave validation queries
// unanswered, or to hold its applies (see holdApplies).
type spyShard struct {
	*Shard
	commitPath  atomic.Int64 // Stage + Prepare + Commit + Abort
	reads       atomic.Int64 // relays arriving on their way out
	validations atomic.Int64
	mute        atomic.Bool
	gate        atomic.Pointer[chan struct{}] // set: Commit and Abort wait for it to close
}

func (s *spyShard) Stage(txID string, m commit.Message) error {
	s.commitPath.Add(1)
	return s.Shard.Stage(txID, m)
}
func (s *spyShard) Prepare(txID string) bool { s.commitPath.Add(1); return s.Shard.Prepare(txID) }
func (s *spyShard) Commit(txID string)       { s.commitPath.Add(1); s.waitGate(); s.Shard.Commit(txID) }
func (s *spyShard) Abort(txID string)        { s.commitPath.Add(1); s.waitGate(); s.Shard.Abort(txID) }

func (s *spyShard) waitGate() {
	if g := s.gate.Load(); g != nil {
		<-*g
	}
}

// holdApplies makes every spy's later Commit and Abort wait until release
// is called, which the test's cleanup also does. A peer answers the client
// whose commit it coordinates once it applied the decision, so no write
// resolves meanwhile, however early its peers decide, and no intent is
// released.
func holdApplies(t *testing.T, spies []*spyShard) (release func()) {
	gate := make(chan struct{})
	for _, sp := range spies {
		sp.gate.Store(&gate)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

func (s *spyShard) Query(m commit.Message) (commit.Message, error) {
	// A read is a relay on its way out; a validation is one that arrives on
	// its way back at its last hop: the client sent it so.
	if r, ok := m.(relayMsg); ok && !r.Back {
		s.reads.Add(1)
	} else if ok && r.At == len(r.Hops)-1 {
		s.validations.Add(1)
		if s.mute.Load() {
			return nil, fmt.Errorf("muted") // the peer turns an error into silence
		}
	}
	return s.Shard.Query(m)
}

// spyDeployment boots n spy shard peers on real sockets plus a client store
// with its read cache off, so that every read is a wire read.
func spyDeployment(t *testing.T, n int, opts commit.Options) (*Store, []*spyShard) {
	t.Helper()
	addrs := kvAddrs(t, n)
	spies := make([]*spyShard, n)
	for i := range spies {
		spies[i] = &spyShard{Shard: NewShard(i)}
		p, err := commit.NewPeer(i+1, addrs, spies[i], opts)
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
	s.ConfigureReadCache(0, 0)
	return s, spies
}

// anchorProfile is a two-region network with a 60 ms round trip between
// them: the client of an n-peer deployment and every peer not listed in far
// in us, the peers in far in eu.
func anchorProfile(n int, far ...core.ProcessID) *live.NetProfile {
	const oneWay = 30 * time.Millisecond
	profile := &live.NetProfile{
		Name:    "test-anchor",
		Regions: []string{"us", "eu"},
		OneWay:  [][]time.Duration{{0, oneWay}, {oneWay, 0}},
	}
	for id := core.ProcessID(1); id <= core.ProcessID(n+1); id++ {
		profile.Pin(id, "us")
	}
	for _, id := range far {
		profile.Pin(id, "eu")
	}
	return profile
}

// validations returns how many validation queries each spy has answered.
func validations(spies []*spyShard) []int64 {
	out := make([]int64, len(spies))
	for i, sp := range spies {
		out[i] = sp.validations.Load()
	}
	return out
}

// readOnly reads keys in one GetMulti, then further one Read each, and
// commits the transaction, which must commit.
func readOnly(t *testing.T, s *Store, ctx context.Context, keys []string, later ...string) {
	t.Helper()
	txn := s.Txn().WithContext(ctx)
	if _, _, err := txn.GetMulti(keys...); err != nil {
		t.Fatal(err)
	}
	for _, k := range later {
		if _, _, err := txn.Read(k); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := txn.Commit(ctx); !ok || err != nil {
		t.Fatalf("read-only txn: ok=%v err=%v", ok, err)
	}
}

// TestAnchorSparesFarValidation: a read-only transaction over a near shard
// and one far shard reads the near one, then the far one, and validates only
// the near one — three legs, of which one crosses the WAN, where reading both
// and validating both crosses it twice. No validation query reaches the far
// shard, and the best of three runs takes under 1.5 far round trips. Not
// parallel: it times transactions and asserts on global counter deltas.
func TestAnchorSparesFarValidation(t *testing.T) {
	const roundTrip = 60 * time.Millisecond
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 100 * time.Millisecond, Net: anchorProfile(2, 2)}
	s, spies := spyDeployment(t, 2, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Never-written keys: no write intent can sit on them.
	keys := keysAcrossShards(t, 2, 3, "anchor")
	best := time.Hour
	for try := 0; try < 3; try++ {
		legs0 := obs.M.CounterValue("kv.remote.legs")
		start := time.Now()
		readOnly(t, s, ctx, []string{keys[0][try], keys[1][try]})
		best = min(best, time.Since(start))
		if d := obs.M.CounterValue("kv.remote.legs") - legs0; d != 3 {
			t.Fatalf("anchored read-only txn paid %d legs, want 3 (near read, far read, near validation)", d)
		}
	}
	if v := validations(spies); v[0] != 3 || v[1] != 0 {
		t.Fatalf("validation queries per shard = %v, want [3 0]: the far shard's read is its validation", v)
	}
	if best >= roundTrip*3/2 {
		t.Fatalf("a read-only txn over one far shard took %v at best, want under %v", best, roundTrip*3/2)
	}
}

// TestAnchorTwoFarShards is the relay's contract: a read-only transaction
// over a near shard and two far ones reads the near one, then relays its
// read through both far shards, which validate it among themselves, and
// validates only the near one — three legs, of which one crosses the WAN,
// where validating a far shard from the client crosses it twice. No
// validation query reaches a far shard, and the best of three runs takes
// under 1.5 far round trips. Not parallel: it times transactions and
// asserts on global counter deltas.
func TestAnchorTwoFarShards(t *testing.T) {
	const roundTrip = 60 * time.Millisecond
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 100 * time.Millisecond, Net: anchorProfile(3, 2, 3)}
	s, spies := spyDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Never-written keys: no write intent can sit on them.
	keys := keysAcrossShards(t, 3, 3, "twofar")
	best := time.Hour
	for try := 0; try < 3; try++ {
		legs0 := obs.M.CounterValue("kv.remote.legs")
		start := time.Now()
		readOnly(t, s, ctx, []string{keys[0][try], keys[1][try], keys[2][try]})
		best = min(best, time.Since(start))
		if d := obs.M.CounterValue("kv.remote.legs") - legs0; d != 3 {
			t.Fatalf("relayed read-only txn paid %d legs, want 3 (near read, relay, near validation)", d)
		}
	}
	if v := validations(spies); v[0] != 3 || v[1] != 0 || v[2] != 0 {
		t.Fatalf("validation queries per shard = %v, want [3 0 0]: the far shards validate inside the relay", v)
	}
	if best >= roundTrip*3/2 {
		t.Fatalf("a read-only txn over two far shards took %v at best, want under %v", best, roundTrip*3/2)
	}
}

// TestAnchorVoidedByLaterRead: a read after the anchored one happens after
// the anchor's read, so the anchor's read no longer follows every read of the
// transaction, and the far shard is validated after all.
func TestAnchorVoidedByLaterRead(t *testing.T) {
	t.Parallel()
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 100 * time.Millisecond, Net: anchorProfile(2, 2)}
	s, spies := spyDeployment(t, 2, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := keysAcrossShards(t, 2, 2, "voided")
	readOnly(t, s, ctx, []string{keys[0][0], keys[1][0]}, keys[0][1])
	if v := validations(spies); v[0] != 1 || v[1] != 1 {
		t.Fatalf("validation queries per shard = %v, want [1 1]: the later read voids the anchor", v)
	}
}

// TestAnchorSingleShardNoProfile: without a profile every round trip counts
// the same, and a read-only transaction that read one shard is anchored
// there: its read is its whole commit, and no validation query is sent.
func TestAnchorSingleShardNoProfile(t *testing.T) {
	t.Parallel()
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	s, spies := spyDeployment(t, 2, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	keys := keysAcrossShards(t, 2, 2, "single")
	readOnly(t, s, ctx, keys[1])
	readOnly(t, s, ctx, nil, keys[0][0])
	if v := validations(spies); v[0] != 0 || v[1] != 0 {
		t.Fatalf("validation queries per shard = %v, want none", v)
	}
}

// TestRemoteReadOnlyLegs pins the read-only commit next to the read-write
// one: a cross-shard transaction that wrote nothing is TWO legs — the read
// fan-out and the validation fan-out — and reaches no shard's Stage, Prepare,
// Commit or Abort, so nothing is staged and no intent is taken. A validation
// query nobody answers resolves the future with an error: an unknown answer
// is not a refusal. Not parallel: it asserts on global counter deltas.
func TestRemoteReadOnlyLegs(t *testing.T) {
	const n = 3
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 10 * time.Millisecond}
	addrs := kvAddrs(t, n)
	spies := make([]*spyShard, n)
	for i := range spies {
		spies[i] = &spyShard{Shard: NewShard(i)}
		p, err := commit.NewPeer(i+1, addrs, spies[i], opts)
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var keys []string
	for _, ks := range keysAcrossShards(t, n, 1, "ro") {
		keys = append(keys, ks...)
	}
	commitSeed(t, ctx, s, func(seed *Txn) {
		for _, k := range keys {
			seed.Put(k, "v")
		}
	})
	// The seed's outcome reaches the shards other than its coordinator's after
	// the client has its result; wait for all three to have applied it, which
	// is also when the last commit-path call of the seed has been counted.
	quiet := func() bool {
		for _, sp := range spies {
			sp.mu.Lock()
			busy := len(sp.staged) + len(sp.locks)
			sp.mu.Unlock()
			if busy != 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !quiet(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the seed never settled on every shard")
		}
	}
	s.ConfigureReadCache(0, 0) // every read below is a wire read
	calls := func() (sum int64) {
		for _, sp := range spies {
			sum += sp.commitPath.Load()
		}
		return sum
	}

	calls0, legs0 := calls(), obs.M.CounterValue("kv.remote.legs")
	txn := s.Txn().WithContext(ctx)
	if _, oks, err := txn.GetMulti(keys...); err != nil || !oks[0] || !oks[n-1] {
		t.Fatalf("GetMulti: oks=%v err=%v", oks, err)
	}
	if ok, err := txn.Commit(ctx); !ok || err != nil {
		t.Fatalf("read-only txn: ok=%v err=%v", ok, err)
	}
	if d := obs.M.CounterValue("kv.remote.legs") - legs0; d != 2 {
		t.Fatalf("cross-shard read-only txn paid %d legs, want 2 (read fan-out, validate fan-out)", d)
	}
	if d := calls() - calls0; d != 0 || !quiet() {
		t.Fatalf("read-only txn made %d Stage/Prepare/Commit/Abort calls (quiet=%v), want none and nothing held", d, quiet())
	}

	// One owner stops answering validations: error, not abort, within the
	// client's own query bound.
	spies[1].mute.Store(true)
	txn = s.Txn().WithContext(ctx)
	if _, _, err := txn.GetMulti(keys...); err != nil {
		t.Fatal(err)
	}
	ok, err := txn.Commit(ctx)
	if err == nil || ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unanswered validation: ok=%v err=%v, want a deadline error", ok, err)
	}
	if !strings.Contains(err.Error(), "P2") {
		t.Fatalf("error lacks the owner attribution: %v", err)
	}
	if d := calls() - calls0; d != 0 || !quiet() {
		t.Fatalf("after the failed validation: %d commit-path calls (quiet=%v), want none", d, quiet())
	}
}

// coalescerProfile is a two-region network with a 60 ms round trip between
// the client (pinned to us, like P1) and P2 (eu), the owner of shard 1.
func coalescerProfile() *live.NetProfile {
	const oneWay = 30 * time.Millisecond
	profile := &live.NetProfile{
		Name:    "test-2r",
		Regions: []string{"us", "eu"},
		OneWay:  [][]time.Duration{{0, oneWay}, {oneWay, 0}},
		Intra:   0,
	}
	profile.Pin(core.ProcessID(3), "us")
	return profile
}

// TestRemoteCoalescerMerge is the read contract: readers pending together
// share one wire query, and no reader waits for the reply to a query that
// left before it came — a read costs one round trip however many are in
// flight to its owner. Not parallel: it asserts on global counter deltas.
func TestRemoteCoalescerMerge(t *testing.T) {
	const roundTrip = 60 * time.Millisecond
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 100 * time.Millisecond, Net: coalescerProfile()}
	s, _, _ := remoteDeployment(t, 2, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const readers = 8
	var keys []string
	for i := 0; len(keys) < readers+6; i++ {
		k := fmt.Sprintf("co-%d", i)
		if shardIndex(k, 2) == 1 {
			keys = append(keys, k)
		}
	}

	// Pending together: the batch is open before its sender hears of it, so
	// all eight readers (and a repeated key) join it before it can leave.
	co := s.b.coalescer(2)
	batches0 := obs.M.CounterValue("kv.remote.read.batches")
	shared := &readBatch{pos: make(map[string]int), done: make(chan struct{})}
	co.mu.Lock()
	co.pending = shared
	co.mu.Unlock()
	batches := make([]*readBatch, readers+1)
	for i := range batches {
		batches[i] = co.enqueue([]string{keys[i%readers]})
	}
	if !co.sender.Push(shared) {
		t.Fatal("the owner's sender is closed")
	}
	for i, b := range batches {
		if b != batches[0] {
			t.Fatalf("reader %d got a batch of its own", i)
		}
		if err := await(ctx, b); err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if len(batches[0].keys) != readers {
		t.Fatalf("the shared query carried %d keys, want %d (one per distinct key)", len(batches[0].keys), readers)
	}
	if d := obs.M.CounterValue("kv.remote.read.batches") - batches0; d != 1 {
		t.Fatalf("%d readers pending together cost %d wire queries, want 1", readers, d)
	}

	// Not queued: a read issued 15 ms after another query to the same owner
	// left. Waiting out that query's reply first cannot cost less than 1.75
	// round trips, so the fastest of three tries tells the two apart even on
	// a machine too busy to schedule every try on time.
	best := time.Hour
	for try := 0; try < 3 && best > roundTrip*5/4; try++ {
		legs0 := obs.M.CounterValue("kv.remote.legs")
		first := make(chan error, 1)
		go func() {
			_, _, err := s.Txn().WithContext(ctx).Read(keys[readers+2*try])
			first <- err
		}()
		time.Sleep(15 * time.Millisecond)
		start := time.Now()
		_, _, err := s.Txn().WithContext(ctx).Read(keys[readers+2*try+1])
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-first; err != nil {
			t.Fatal(err)
		}
		if took < roundTrip {
			t.Fatalf("a read took %v, less than the %v round trip", took, roundTrip)
		}
		// Per-caller leg accounting: every reader waited one round-trip phase.
		if d := obs.M.CounterValue("kv.remote.legs") - legs0; d != 2 {
			t.Fatalf("legs delta = %d, want 2 (one per reader)", d)
		}
		best = min(best, took)
	}
	if best > roundTrip*5/4 {
		t.Fatalf("a read behind an in-flight query took %v at best, want one %v round trip (at most 1.25)", best, roundTrip)
	}
}

// TestRemoteSubmitDoesNotWait: Submit of a cross-shard transaction whose
// other shard is a WAN round trip away returns at once — every client-side
// wait of a commit is inside Wait, on the one stage+go leg.
func TestRemoteSubmitDoesNotWait(t *testing.T) {
	t.Parallel()
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 100 * time.Millisecond, Net: coalescerProfile()}
	s, _, _ := remoteDeployment(t, 2, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A Submit that waits on the network cannot take less than the 60 ms round
	// trip, so the fastest of three tries is what is pinned: a busy machine may
	// be late scheduling any one of them. Every try must commit.
	keys := keysAcrossShards(t, 2, 3, "submit") // every try its own: no conflict with the last
	best := time.Hour
	for try := 0; try < 3 && best > 5*time.Millisecond; try++ {
		txn := s.Txn()
		txn.Put(keys[0][try], "near")
		txn.Put(keys[1][try], "far")
		start := time.Now()
		p, err := txn.Submit(ctx)
		best = min(best, time.Since(start))
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := p.Wait(ctx); !ok || err != nil {
			t.Fatalf("Wait: ok=%v err=%v", ok, err)
		}
	}
	if best > 5*time.Millisecond {
		t.Fatalf("Submit took %v at best, want < 5ms: it waited on the network", best)
	}
}

// TestCoordinatorNearestPeer pins the coordinator rule: with a geo profile
// the peer nearest the client, involved or not, with ties going to an
// involved peer and then to the lowest index; without one, the lowest
// involved index.
func TestCoordinatorNearestPeer(t *testing.T) {
	t.Parallel()
	usEu, err := live.NamedProfile("us-eu") // P1, P3 in us; P2, P4 in eu
	if err != nil {
		t.Fatal(err)
	}
	usEu.Pin(5, "us")
	usEuAp, err := live.NamedProfile("us-eu-ap") // P1 in us, P2 in eu
	if err != nil {
		t.Fatal(err)
	}
	usEuAp.Pin(3, "ap")
	for _, tc := range []struct {
		name   string
		net    *live.NetProfile
		client core.ProcessID
		n      int
		idxs   []int // involved shards, 0-based
		want   int
	}{
		{"involved home peer kept over a lower uninvolved one", usEu, 5, 4, []int{2, 3}, 3},
		{"every involved peer remote", usEu, 5, 4, []int{1, 3}, 1},
		{"no peer in the client's region", usEuAp, 3, 2, []int{1}, 1},
		{"no profile", nil, 5, 4, []int{1, 3}, 2},
	} {
		if got := coordinator(tc.net, tc.client, tc.n, tc.idxs); got != tc.want {
			t.Errorf("%s: coordinator = P%d, want P%d", tc.name, got, tc.want)
		}
	}
}

// TestRemoteFarWriteCoordinatedNearby: a write whose only shard is across the
// WAN is coordinated by the peer next to the client, so the client waits for
// the protocol's 2U (200 ms) and crosses no WAN link itself; a coordinator in
// the far region adds its 30 ms go leg and 30 ms result leg. The near peer
// hosts no slice of the write, votes yes and holds nothing once the client
// has its result, and the far shard applies the write. Not parallel: it
// times commits.
func TestRemoteFarWriteCoordinatedNearby(t *testing.T) {
	const u, oneWay = 100 * time.Millisecond, 30 * time.Millisecond
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: u, Net: coalescerProfile()}
	addrs := kvAddrs(t, 2)
	shards := make([]*Shard, 2)
	for i := range shards {
		shards[i] = NewShard(i)
		p, err := commit.NewPeer(i+1, addrs, shards[i], opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
	}
	s, err := OpenRemote(3, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A commit coordinated across the WAN cannot take less than 2U plus the
	// round trip, so the fastest of three tries is what is pinned: a busy
	// machine may be late scheduling any one of them. Every try writes a key
	// of its own, so none meets the last one's intent.
	far := keysAcrossShards(t, 2, 3, "far")[1]
	best := time.Hour
	for try := 0; try < 3 && best >= 2*u+oneWay; try++ {
		key := far[try]
		txn := s.Txn()
		txn.Put(key, "v")
		start := time.Now()
		ok, err := txn.Commit(ctx)
		best = min(best, time.Since(start))
		if !ok || err != nil {
			t.Fatalf("write to %s: ok=%v err=%v", key, ok, err)
		}
		shards[0].mu.Lock()
		staged, locks := len(shards[0].staged), len(shards[0].locks)
		shards[0].mu.Unlock()
		if staged != 0 || locks != 0 {
			t.Fatalf("P1 holds staged=%d locks=%d for a write it has no slice of", staged, locks)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if v, _, err := s.Read(key); err == nil && v == "v" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("P2 never served the committed %s", key)
			}
		}
	}
	if best >= 2*u+oneWay {
		t.Fatalf("a write to P2's shard alone took %v at best, want under %v: it was coordinated across the WAN", best, 2*u+oneWay)
	}
}

// TestRemoteReadErrorDemux: concurrent reads riding one coalescer against a
// dead owner must EACH get the owner-attributed error — a shared batch
// failure demuxes to every caller, poisoning every transaction involved.
func TestRemoteReadErrorDemux(t *testing.T) {
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
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	p0.Close() // shard 0's owner is gone

	const readers = 4
	var keys []string
	for i := 0; len(keys) < readers; i++ {
		k := fmt.Sprintf("dead-%d", i)
		if shardIndex(k, 2) == 0 {
			keys = append(keys, k)
		}
	}
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := s.Txn().WithContext(ctx)
			_, _, errs[i] = txn.Read(keys[i])
			if errs[i] != nil {
				// The error must poison the transaction.
				if _, submitErr := txn.Submit(ctx); submitErr == nil {
					errs[i] = fmt.Errorf("poisoned transaction submitted cleanly")
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("reader %d of a dead owner succeeded", i)
		}
		if !strings.Contains(err.Error(), "P1") {
			t.Fatalf("reader %d error lacks the owner attribution: %v", i, err)
		}
	}
}

// TestRemoteGetMultiBankConservation is the bank invariant driven through
// the batched read path with the cache enabled and the piggybacked commit
// leg active — the tentpole's acceptance shape, run under -race in CI.
func TestRemoteGetMultiBankConservation(t *testing.T) {
	t.Parallel()
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	s, _, _ := remoteDeployment(t, 3, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const accounts = 8
	const initial = 100
	acct := func(i int) string { return fmt.Sprintf("macct-%d", i) }
	commitSeed(t, ctx, s, func(seed *Txn) {
		for i := 0; i < accounts; i++ {
			seed.Put(acct(i), "100")
		}
	})

	const workers = 4
	const perWorker = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				a := (w + k) % accounts
				b := (w + k + 1 + k%(accounts-1)) % accounts
				if a == b {
					continue
				}
				txn := s.Txn().WithContext(ctx)
				vals, oks, err := txn.GetMulti(acct(a), acct(b))
				if err != nil || !oks[0] || !oks[1] {
					continue // infra hiccup: abandon the builder
				}
				ai, bi := atoiOr(t, vals[0]), atoiOr(t, vals[1])
				amt := 1 + (w+k)%5
				txn.Put(acct(a), fmt.Sprintf("%d", ai-amt))
				txn.Put(acct(b), fmt.Sprintf("%d", bi+amt))
				txn.Commit(ctx) // aborts are fine; corruption is not
			}
		}(w)
	}
	wg.Wait()

	sum := 0
	for i := 0; i < accounts; i++ {
		v, ok, err := s.Read(acct(i))
		if err != nil || !ok {
			t.Fatalf("final read %s: ok=%v err=%v", acct(i), ok, err)
		}
		sum += atoiOr(t, v)
	}
	if sum != accounts*initial {
		t.Fatalf("money not conserved through GetMulti+cache: sum=%d want=%d", sum, accounts*initial)
	}
}

func atoiOr(t *testing.T, s string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
		t.Fatalf("balance %q: %v", s, err)
	}
	return n
}
