package kv

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/obs"
)

func TestReadCacheLRU(t *testing.T) {
	t.Parallel()
	c := newReadCache(2)
	c.put("a", "1", true, 1)
	c.put("b", "2", true, 1)
	if v, ok, ver, hit := c.get("a"); !hit || v != "1" || !ok || ver != 1 {
		t.Fatalf("get a = (%q,%v,%d,%v), want (1,true,1,hit)", v, ok, ver, hit)
	}
	// "a" was just used, so inserting "c" must evict "b".
	c.put("c", "3", true, 1)
	if _, _, _, hit := c.get("b"); hit {
		t.Fatal("LRU eviction kept b over the more recently used a")
	}
	if _, _, _, hit := c.get("a"); !hit {
		t.Fatal("LRU eviction dropped the most recently used entry")
	}
	if got := c.len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	// Update-in-place must not grow the cache, and must refresh the entry.
	c.put("a", "1b", false, 7)
	if v, ok, ver, hit := c.get("a"); !hit || v != "1b" || ok || ver != 7 {
		t.Fatalf("updated a = (%q,%v,%d,%v), want (1b,false,7,hit)", v, ok, ver, hit)
	}
	if got := c.len(); got != 2 {
		t.Fatalf("len after update = %d, want 2", got)
	}
	c.invalidate("a")
	if _, _, _, hit := c.get("a"); hit {
		t.Fatal("invalidated entry still served")
	}
}

func TestReadCacheDisabledAndNil(t *testing.T) {
	t.Parallel()
	if c := newReadCache(0); c != nil {
		t.Fatal("capacity 0 must disable the cache")
	}
	var c *readCache
	c.put("k", "v", true, 1) // must not panic
	c.invalidate("k")
	c.mark(map[string]write{"k": {}})
	c.unmark(map[string]write{"k": {}}, true)
	if _, _, _, hit := c.get("k"); hit {
		t.Fatal("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

// TestReadCacheNeverLowersVersion: a fill at an earlier version than the
// entry's — a read answered before this store's own commit, landing after
// the commit's note — leaves the later entry in place.
func TestReadCacheNeverLowersVersion(t *testing.T) {
	t.Parallel()
	c := newReadCache(8)
	c.put("k", "five", true, 5)
	c.put("k", "three", true, 3)
	if v, ok, ver, hit := c.get("k"); !hit || v != "five" || !ok || ver != 5 {
		t.Fatalf("get k = (%q,%v,%d,%v), want (five,true,5,hit)", v, ok, ver, hit)
	}
}

// TestReadCacheSkipsUndecidedWrite: a key this store is writing misses while
// any of its writers is undecided — two may be in flight at once — and hits
// again, with the entry the last note installed, once the last one is done.
func TestReadCacheSkipsUndecidedWrite(t *testing.T) {
	t.Parallel()
	c := newReadCache(8)
	w := map[string]write{"k": {value: "new"}}
	c.put("k", "old", true, 1)
	c.mark(w)
	if _, _, _, hit := c.get("k"); hit {
		t.Fatal("a key with an undecided writer was served")
	}
	c.mark(w)
	c.unmark(w, false)
	if _, _, _, hit := c.get("k"); hit {
		t.Fatal("a key was served while its second writer was undecided")
	}
	c.put("k", "new", true, 2) // the second writer's note
	c.unmark(w, false)
	if v, ok, ver, hit := c.get("k"); !hit || v != "new" || !ok || ver != 2 {
		t.Fatalf("get k = (%q,%v,%d,%v), want the noted (new,true,2,hit)", v, ok, ver, hit)
	}
	if n := writingCount(c); n != 0 {
		t.Fatalf("%d writer counts left, want none", n)
	}
}

// TestRemoteCacheStaleAbort: a cached read gone stale (another client
// committed a newer version) must cost exactly an OCC abort — attributed to
// the cache by kv.cache.stale_abort — and invalidate the entry so the
// retry re-reads and commits. This is the cache's safety contract on real
// sockets. Not parallel: it asserts on global counter deltas.
func TestRemoteCacheStaleAbort(t *testing.T) {
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	sA, _, addrs := remoteDeployment(t, 3, opts)
	sA.ConfigureReadCache(1024, 0)
	sB, err := OpenRemote(5, addrs, opts) // second client, own cache
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = "stale-key"
	commitSeed(t, ctx, sB, func(seed *Txn) { seed.Put(key, "v1") })

	// Fill A's cache with the current version.
	warm := sA.Txn()
	if v, ok, err := warm.Read(key); err != nil || !ok || v != "v1" {
		t.Fatalf("warm read = (%q,%v,%v)", v, ok, err)
	}

	// B moves the key forward; A's cache is now stale.
	bump := sB.Txn()
	bump.Put(key, "v2")
	if ok, err := bump.Commit(ctx); !ok || err != nil {
		t.Fatalf("bump: ok=%v err=%v", ok, err)
	}

	staleAb0 := obs.M.CounterValue("kv.cache.stale_abort")
	shardStale0 := obs.M.CounterValue("kv.conflict.stale_read")
	stale := sA.Txn()
	v, ok, err := stale.Read(key)
	if err != nil || !ok || v != "v1" {
		t.Fatalf("stale cached read = (%q,%v,%v), want cache's v1", v, ok, err)
	}
	stale.Put(key, "v3")
	if ok, err := stale.Commit(ctx); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("transaction built on a stale cached read committed")
	}
	waitFor2 := func(what string, cond func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The abort's note runs async after the future resolves.
	waitFor2("stale-abort attribution", func() bool {
		return obs.M.CounterValue("kv.cache.stale_abort") > staleAb0
	})
	if d := obs.M.CounterValue("kv.conflict.stale_read") - shardStale0; d < 1 {
		t.Fatalf("shard-side stale_read delta = %d, want >= 1", d)
	}

	// The abort invalidated the entry: the retry re-reads the shard's v2
	// and commits.
	waitFor2("retry after invalidation", func() bool {
		retry := sA.Txn()
		v, ok, err := retry.Read(key)
		if err != nil || !ok {
			return false
		}
		if v != "v2" {
			t.Fatalf("post-abort read = %q, want fresh v2", v)
		}
		retry.Put(key, "v3")
		committed, err := retry.Commit(ctx)
		return err == nil && committed
	})
	if v, _, err := sA.Read(key); err != nil || v != "v3" {
		t.Fatalf("final read = (%q,%v), want v3", v, err)
	}
}

// TestRemoteCacheRefusedDropsFreshReads: a refused transaction drops every
// key it read from the cache, not just its cache hits. Here every read was a
// wire read that FILLED the cache, the entry went stale before validation,
// and the read-only transaction is refused: no hit was consumed, so the
// stale-abort counter stays put, but the entry must be gone — left in place
// it fails the next reader of the key as well. Not parallel: it asserts on
// global counter deltas.
func TestRemoteCacheRefusedDropsFreshReads(t *testing.T) {
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	sA, _, addrs := remoteDeployment(t, 3, opts)
	sA.ConfigureReadCache(1024, 0)
	sB, err := OpenRemote(5, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = "refused-key"
	put := func(val string) {
		t.Helper()
		txn := sB.Txn()
		txn.Put(key, val)
		if ok, err := txn.Commit(ctx); !ok || err != nil {
			t.Fatalf("put %s: ok=%v err=%v", val, ok, err)
		}
	}
	put("v1")

	hit0, staleAb0 := obs.M.CounterValue("kv.cache.hit"), obs.M.CounterValue("kv.cache.stale_abort")
	// A second shard in the read set: without a profile a one-shard read set
	// is anchored, its read standing in for its validation, and would commit.
	other := keyForShard(t, (shardIndex(key, 3)+1)%3, 3)
	reader := sA.Txn()
	if vals, oks, err := reader.GetMulti(key, other); err != nil || !oks[0] || vals[0] != "v1" {
		t.Fatalf("read = (%q,%v,%v), want v1", vals, oks, err)
	}
	put("v2") // single-shard: applied by the time B has its result
	if ok, err := reader.Commit(ctx); err != nil || ok {
		t.Fatalf("read-only txn over an overwritten version: ok=%v err=%v, want a refusal", ok, err)
	}
	if d := obs.M.CounterValue("kv.cache.hit") - hit0; d != 0 {
		t.Fatalf("%d cache hits, want 0: the test needs a transaction whose reads were all fresh", d)
	}
	if d := obs.M.CounterValue("kv.cache.stale_abort") - staleAb0; d != 0 {
		t.Fatalf("stale_abort moved by %d for a transaction that consumed no cache hit", d)
	}

	next := sA.Txn()
	if v, ok, err := next.Read(key); err != nil || !ok || v != "v2" {
		t.Fatalf("next reader got (%q,%v,%v), want a wire read of v2: the refused transaction left its stale entry cached", v, ok, err)
	}
	if ok, err := next.Commit(ctx); !ok || err != nil {
		t.Fatalf("next reader: ok=%v err=%v, want a commit", ok, err)
	}
}

// TestRemoteCacheOutlivesOldTTL: the cache OpenRemote builds has no
// staleness bound, so an entry far older than the 16 U it once allowed is
// still a hit and the read wires no query — a stale entry is dropped by the
// first transaction it fails, not by its age. Not parallel: it asserts on
// global counter deltas.
func TestRemoteCacheOutlivesOldTTL(t *testing.T) {
	const u = 2 * time.Millisecond
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: u}
	s, _, _ := remoteDeployment(t, 2, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = "aged-key"
	// A U this tight can time a commit out, which is a legal abort.
	commitSeed(t, ctx, s, func(seed *Txn) { seed.Put(key, "v") })
	if v, ok, err := s.Txn().WithContext(ctx).Read(key); err != nil || !ok || v != "v" {
		t.Fatalf("filling read = (%q,%v,%v), want v", v, ok, err)
	}
	time.Sleep(40 * u)

	hit0, batches0 := obs.M.CounterValue("kv.cache.hit"), obs.M.CounterValue("kv.remote.read.batches")
	if v, ok, err := s.Txn().WithContext(ctx).Read(key); err != nil || !ok || v != "v" {
		t.Fatalf("aged read = (%q,%v,%v), want v", v, ok, err)
	}
	if d := obs.M.CounterValue("kv.cache.hit") - hit0; d != 1 {
		t.Fatalf("an entry 40 U old: %d cache hits, want 1", d)
	}
	if d := obs.M.CounterValue("kv.remote.read.batches") - batches0; d != 0 {
		t.Fatalf("an entry 40 U old: %d wire reads, want 0", d)
	}
}

// TestRemoteCacheOwnWriteFreshness: a committed read-modify-write leaves
// the cache entry FRESH (version readVer+1, exactly what the shard now
// holds), so the next transaction's cached read survives Prepare.
// Not parallel: asserts on global counter deltas.
func TestRemoteCacheOwnWriteFreshness(t *testing.T) {
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 25 * time.Millisecond}
	s, _, _ := remoteDeployment(t, 3, opts)
	s.ConfigureReadCache(1024, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const key = "rmw-key"
	commitSeed(t, ctx, s, func(seed *Txn) { seed.Put(key, "0") })

	// Prime the cache, then read-modify-write through it repeatedly: after
	// the first wire read, every iteration's read must be a cache hit AND
	// every commit must succeed (a stale or wrongly-versioned entry would
	// abort at Prepare).
	for i := 0; i < 4; i++ {
		txn := s.Txn()
		if _, ok, err := txn.Read(key); err != nil || !ok {
			t.Fatalf("iter %d read: ok=%v err=%v", i, ok, err)
		}
		written := fmt.Sprintf("n%d", i)
		txn.Put(key, written)
		ok, err := txn.Commit(ctx)
		if err != nil || !ok {
			t.Fatalf("iter %d: rmw through the cache aborted: ok=%v err=%v", i, ok, err)
		}
		// note() runs async post-resolution; wait until the entry carries
		// THIS iteration's value (a mere hit could be the pre-commit fetch)
		// before the next iteration reads through the cache.
		rb := s.b
		deadline := time.Now().Add(5 * time.Second)
		for {
			if v, _, _, hit := rb.cache.get(key); hit && v == written {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("iter %d: cache entry not refreshed after commit", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	hit0 := obs.M.CounterValue("kv.cache.hit")
	txn := s.Txn()
	if _, ok, err := txn.Read(key); err != nil || !ok {
		t.Fatalf("final read: ok=%v err=%v", ok, err)
	}
	if d := obs.M.CounterValue("kv.cache.hit") - hit0; d != 1 {
		t.Fatalf("final read hit delta = %d, want 1 (served by the cache)", d)
	}
	txn.Put(key, "last")
	if ok, err := txn.Commit(ctx); err != nil || !ok {
		t.Fatalf("final rmw: ok=%v err=%v", ok, err)
	}
	if v, _, err := s.Read(key); err != nil || v != "last" {
		t.Fatalf("shard state = (%q,%v), want last", v, err)
	}
}

// cachedWrite seeds key with val through s, reads it back in a read-only
// transaction so that s caches it, and returns s's read cache.
func cachedWrite(t *testing.T, s *Store, ctx context.Context, key, val string) *readCache {
	t.Helper()
	commitSeed(t, ctx, s, func(seed *Txn) { seed.Put(key, val) })
	readOnly(t, s, ctx, []string{key})
	c := s.b.cache
	if v, _, _, hit := c.get(key); !hit || v != val {
		t.Fatalf("cached %s = (%q,%v), want (%q,hit)", key, v, hit, val)
	}
	return c
}

// writingCount returns how many keys c counts an undecided writer of.
func writingCount(c *readCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.writing)
}

// TestRemoteReadSkipsCacheUnderOwnWriter is the cache rule on real sockets:
// a transaction R that reads a cached key while a write W of the same store
// to it is undecided reads it at its shard, not from the cache. The shard
// parks the read behind W's intent and answers with W's value, and R
// commits; served the cached pre-image, R's validation would refuse it.
// Every shard holds its applies until R's read has reached the shard, so W
// stays undecided at the client, and its intent in place, until then.
func TestRemoteReadSkipsCacheUnderOwnWriter(t *testing.T) {
	t.Parallel()
	s, spies := spyDeployment(t, 2, commit.Options{Protocol: commit.INBAC, F: 1})
	s.ConfigureReadCache(1024, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	key := keyForShard(t, 1, 2)
	owner := spies[1]
	cachedWrite(t, s, ctx, key, "v1")

	release := holdApplies(t, spies)
	w := s.Txn()
	w.Put(key, "v2")
	pw, err := w.Submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	held := func() bool {
		owner.mu.Lock()
		defer owner.mu.Unlock()
		l := owner.locks[key]
		return l != nil && l.writer != ""
	}
	for deadline := time.Now().Add(10 * time.Second); !held(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("W never took its intent")
		}
	}

	type read struct {
		v   string
		ok  bool
		err error
	}
	reads0 := owner.reads.Load()
	r := s.Txn().WithContext(ctx)
	got := make(chan read, 1)
	go func() {
		v, ok, err := r.Read(key)
		got <- read{v, ok, err}
	}()
	for deadline := time.Now().Add(10 * time.Second); owner.reads.Load() == reads0; time.Sleep(time.Millisecond) {
		select {
		case g := <-got:
			t.Fatalf("R read (%q,%v,%v) without reaching the shard: the cache served a key its store was writing", g.v, g.ok, g.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("R's read never reached the shard")
		}
	}
	release()
	if g := <-got; g.err != nil || !g.ok || g.v != "v2" {
		t.Fatalf("R read (%q,%v,%v), want W's v2", g.v, g.ok, g.err)
	}
	if ok, err := pw.Wait(ctx); !ok || err != nil {
		t.Fatalf("W: ok=%v err=%v", ok, err)
	}
	if ok, err := r.Commit(ctx); !ok || err != nil {
		t.Fatalf("R: ok=%v err=%v, want a commit", ok, err)
	}
}

// TestRemoteUnknownWriteOutcomeLeavesNoMark: a write whose future resolves
// with an error — its context ended, or the store closed — may still
// commit at its peers, so it leaves neither a writer count nor its key's
// cached pre-image behind.
func TestRemoteUnknownWriteOutcomeLeavesNoMark(t *testing.T) {
	t.Parallel()
	// U = 100 ms: neither write can decide before its future is resolved.
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 100 * time.Millisecond}
	s, _, _ := remoteDeployment(t, 2, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	keys := keysAcrossShards(t, 2, 2, "unknown")[1]

	for _, tc := range []struct {
		name string
		key  string
		end  func(context.CancelFunc)
		want string
	}{
		{"context", keys[0], func(stop context.CancelFunc) { stop() }, "context canceled"},
		{"close", keys[1], func(context.CancelFunc) { s.Close() }, "client closed"},
	} {
		c := cachedWrite(t, s, ctx, tc.key, "v1")
		wctx, stop := context.WithCancel(ctx)
		w := s.Txn()
		w.Put(tc.key, "v2")
		p, err := w.Submit(wctx)
		if err != nil {
			t.Fatal(err)
		}
		tc.end(stop)
		if ok, err := p.Wait(ctx); ok || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: ok=%v err=%v, want an error saying %q", tc.name, ok, err, tc.want)
		}
		if n := writingCount(c); n != 0 {
			t.Errorf("%s: %d writer counts left, want none", tc.name, n)
		}
		if v, _, _, hit := c.get(tc.key); hit {
			t.Errorf("%s: the cache still serves %s = %q", tc.name, tc.key, v)
		}
	}
}
