// Client-side versioned read cache of a Store. A hit skips the round trip
// entirely; safety comes for free because every read version travels in
// the footprint and shard Prepare (or a read-only validation) revalidates
// it — the worst a stale entry can cause is an OCC abort, which the existing
// abort-attribution counters already classify. That abort drops every key
// the transaction read, so a stale entry lives until its first failed use;
// a current one lives until LRU eviction or a blind write. There is no
// staleness TTL: an age limit would only evict entries that are still
// current. It never serves a key this store is still writing (its entry is the
// writer's pre-image: a certain refusal), and an entry's version only moves
// forward, so a read answered before a commit cannot undo the commit's note.

package kv

import (
	"container/list"
	"sync"

	"atomiccommit/internal/obs"
)

// Read-cache metrics: hits saved a WAN round trip; stale aborts are
// aborted transactions that consumed at least one cached read (the upper
// bound on aborts the cache could have caused — the shard-side
// kv.conflict.stale_read counter says how many reads were in fact stale).
var (
	mCacheHit        = obs.M.Counter("kv.cache.hit")
	mCacheMiss       = obs.M.Counter("kv.cache.miss")
	mCacheStaleAbort = obs.M.Counter("kv.cache.stale_abort")
)

// cacheEntry is one cached committed read: value, presence, and the version
// the owning shard reported (or the client derived from its own commit).
type cacheEntry struct {
	key string
	val string
	ok  bool
	ver uint64
}

// readCache is an LRU of key -> (value, version), and a count per key of
// this store's undecided writers of it (two may be in flight at once).
// Filled by read replies and by the client's own committed
// read-modify-writes (whose post-commit version is exactly readVersion+1:
// the shard's Prepare validated the read under intents that excluded every
// other writer until our commit applied). All methods are safe for
// concurrent use; a nil *readCache is a valid, always-missing cache.
type readCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recent
	m       map[string]*list.Element
	writing map[string]int // key -> undecided writes of it; get misses while > 0
}

func newReadCache(capacity int) *readCache {
	if capacity <= 0 {
		return nil
	}
	return &readCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity), writing: make(map[string]int)}
}

// get returns the cached entry for key if present and not being written by
// this store, counting the hit or miss.
func (c *readCache) get(key string) (val string, ok bool, ver uint64, hit bool) {
	if c == nil {
		return "", false, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[key]
	if !found || c.writing[key] > 0 {
		mCacheMiss.Add(1)
		return "", false, 0, false
	}
	e := el.Value.(*cacheEntry)
	c.ll.MoveToFront(el)
	mCacheHit.Add(1)
	return e.val, e.ok, e.ver, true
}

// put records key's committed state, evicting the least recently used
// entry beyond capacity. An entry already at a later version stays.
func (c *readCache) put(key, val string, ok bool, ver uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.m[key]; found {
		e := el.Value.(*cacheEntry)
		if e.ver > ver {
			return
		}
		e.val, e.ok, e.ver = val, ok, ver
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, val: val, ok: ok, ver: ver})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// invalidate drops key (a blind write or delete committed, so the new
// version is unknown client-side; or a cached read fed an aborted
// transaction and must not feed the retry).
func (c *readCache) invalidate(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.m[key]; found {
		c.ll.Remove(el)
		delete(c.m, key)
	}
}

// mark counts one more undecided write of this store on every key of
// writes, before its footprint leaves.
func (c *readCache) mark(writes map[string]write) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range writes {
		c.writing[key]++
	}
}

// unmark takes back one mark of every key of writes; drop first drops the
// keys' entries, for a write whose outcome is unknown.
func (c *readCache) unmark(writes map[string]write, drop bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range writes {
		if el, found := c.m[key]; found && drop {
			c.ll.Remove(el)
			delete(c.m, key)
		}
		if c.writing[key]--; c.writing[key] <= 0 {
			delete(c.writing, key)
		}
	}
}

// len reports the live entry count (tests).
func (c *readCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
