package commit

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"atomiccommit/internal/core"
)

// TestBoundedMapEviction checks the shared bounded memory (a peer's outcome
// cache, a cluster's finished set) stays bounded and evicts oldest-first.
func TestBoundedMapEviction(t *testing.T) {
	t.Parallel()
	var b boundedMap[int]
	for i := 0; i < retiredHistory+10; i++ {
		b.put(fmt.Sprintf("tx-%d", i), i)
	}
	b.put("tx-10", -1) // overwriting neither grows the map nor re-queues the key
	if b.n != retiredHistory {
		t.Fatalf("map must cap at %d, got %d", retiredHistory, b.n)
	}
	if _, ok := b.get("tx-9"); ok {
		t.Fatal("oldest keys must be evicted")
	}
	if v, ok := b.get("tx-10"); !ok || v != -1 {
		t.Fatalf("tx-10 = (%d, %v), want the overwritten value", v, ok)
	}
	b.put("one-more", 0)
	if _, ok := b.get("tx-10"); ok {
		t.Fatal("an overwritten key must keep its place in the eviction queue")
	}
}

// TestBoundedMapPutAllocs: once full, a put evicts the oldest key in place.
// Every peer's apply puts once per decision, so a run of retiredHistory new
// keys — each evicting one — allocates nothing: the queue of keys is a fixed
// ring and its index a fixed table, never shifted, regrown or copied. Not
// parallel: AllocsPerRun counts the whole process's allocations.
func TestBoundedMapPutAllocs(t *testing.T) {
	keys := make([]string, 2*retiredHistory)
	for i := range keys {
		keys[i] = fmt.Sprintf("tx-%d", i)
	}
	var b boundedMap[int]
	half := 0
	fill := func() { // the half of keys the map does not hold
		for _, k := range keys[half*retiredHistory : (half+1)*retiredHistory] {
			b.put(k, half)
		}
		half = 1 - half
	}
	fill()
	if avg := testing.AllocsPerRun(4, fill); avg != 0 {
		t.Fatalf("%d puts that each evict a key allocate %.0f times, want 0", retiredHistory, avg)
	}
	if b.n != retiredHistory {
		t.Fatalf("map must cap at %d, got %d", retiredHistory, b.n)
	}
}

// TestBoundedMapMatchesFIFO runs random puts, overwrites and gets against a
// reference: a Go map whose keys leave in insertion order once it holds
// retiredHistory. Every get must agree exactly, hit and value or miss, and
// every retained key must stay reachable through the evictions' backward
// shifts: a false hit would hand a late envelope another transaction's
// outcome, a false miss would leave it unanswered.
func TestBoundedMapMatchesFIFO(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	var b boundedMap[int]
	ref := make(map[string]int)
	var queue []string // ref's keys, oldest first
	const ops = 24 * retiredHistory
	for op := 0; op < ops; op++ {
		// Keys drawn from twice the capacity: about half the gets hit and
		// half the puts overwrite.
		k := fmt.Sprintf("tx-%d", rng.Intn(2*retiredHistory))
		if rng.Intn(3) == 0 {
			want, wantOK := ref[k]
			if got, ok := b.get(k); ok != wantOK || got != want {
				t.Fatalf("op %d: get(%s) = (%d, %v), want (%d, %v)", op, k, got, ok, want, wantOK)
			}
			continue
		}
		if _, held := ref[k]; !held {
			if len(queue) == retiredHistory {
				delete(ref, queue[0])
				queue = queue[1:]
			}
			queue = append(queue, k)
		}
		ref[k] = op
		b.put(k, op)
		if op%retiredHistory == 0 {
			if b.n != len(ref) {
				t.Fatalf("op %d: %d entries, want %d", op, b.n, len(ref))
			}
			for rk, rv := range ref {
				if got, ok := b.get(rk); !ok || got != rv {
					t.Fatalf("op %d: retained %s reads (%d, %v), want (%d, true)", op, rk, got, ok, rv)
				}
			}
		}
	}
	for i := 0; i < retiredHistory; i++ {
		k := fmt.Sprintf("never-%d", i)
		if _, ok := b.get(k); ok {
			t.Fatalf("%s was never put but hits", k)
		}
	}
}

// TestOutcomeCacheBytes: a peer's outcome cache is the one per-transaction
// state it keeps once a transaction is decided, so its bytes per retained
// outcome, after enough puts to churn it sixteen times over, are the
// per-transaction part of a steady peer's heap. The key strings are the
// transaction IDs, which the test holds anyway, so they are not counted.
// Not parallel: the heap is the whole process's.
func TestOutcomeCacheBytes(t *testing.T) {
	keys := make([]string, 16*retiredHistory)
	for i := range keys {
		keys[i] = fmt.Sprintf("tx-%d", i)
	}
	heap := func() float64 {
		// Two collections: sync.Pool contents (fmt's among them) survive
		// the first one in the pools' victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := heap()
	b := new(boundedMap[core.Value])
	for i, k := range keys {
		b.put(k, core.Value(i&1))
	}
	perEntry := (heap() - before) / retiredHistory
	runtime.KeepAlive(b)
	runtime.KeepAlive(keys)
	t.Logf("%.1f B per retained outcome", perEntry)
	if perEntry > 40 {
		t.Fatalf("%.1f B per retained outcome after %d puts, want at most 40", perEntry, len(keys))
	}
}
