package commit

import "hash/maphash"

// retiredHistory is how many recently finished transaction IDs a host
// remembers. A peer retires a transaction when it applies the decision, so
// this is all it keeps of one from then on: long enough that a late protocol
// envelope (a vote or a plea for help landing after the decision) is
// answered with the outcome instead of buffered forever, that a replayed
// Wait or go still gets its answer, also when a client resubmits the txID.
const retiredHistory = 4096

// indexSlots is the size of boundedMap's index: a power of two at twice
// retiredHistory, so the table is at most half full and a probe meets an
// empty slot within a few slots.
const indexSlots = 2 * retiredHistory

// boundedMap remembers the retiredHistory most recently inserted keys and
// evicts FIFO. It is the one bounded memory behind a Peer's outcome cache.
//
// The keys and values sit in a fixed ring, in insertion order, and a fixed
// open-addressing table indexes the ring: linear probing over indexSlots
// int32 slots, each 0 (empty) or a ring position plus one, with
// backward-shift deletion, so no tombstones build up. A lookup compares the
// whole key, never just its hash: a false hit would answer a late envelope
// with another transaction's outcome. Everything is made by the first put,
// so a put in steady state allocates nothing, an evicted key is let go at
// once, and an entry costs its key's string header, its value and two index
// slots. The zero value is empty and ready; callers synchronize access.
type boundedMap[V any] struct {
	keys  []string // ring, in insertion order
	vals  []V      // vals[i] is keys[i]'s value
	index []int32  // indexSlots slots: 0 empty, else a ring position + 1
	seed  maphash.Seed
	n     int // entries held, up to retiredHistory
	next  int // ring's slot for the next new key: the oldest, once full
}

// home is k's first probe slot.
func (b *boundedMap[V]) home(k string) int {
	return int(maphash.String(b.seed, k) & (indexSlots - 1))
}

// find returns the index slot holding k, or the empty slot where its probe
// ended.
func (b *boundedMap[V]) find(k string) (slot int, found bool) {
	for s := b.home(k); ; s = (s + 1) & (indexSlots - 1) {
		p := b.index[s]
		if p == 0 {
			return s, false
		}
		if b.keys[p-1] == k {
			return s, true
		}
	}
}

func (b *boundedMap[V]) get(k string) (v V, ok bool) {
	if b.n == 0 {
		return v, false
	}
	s, ok := b.find(k)
	if ok {
		v = b.vals[b.index[s]-1]
	}
	return v, ok
}

// put sets k's value. A new key evicts the oldest one beyond
// retiredHistory; overwriting keeps k's place in the queue.
func (b *boundedMap[V]) put(k string, v V) {
	if b.index == nil {
		b.keys, b.vals = make([]string, retiredHistory), make([]V, retiredHistory)
		b.index, b.seed = make([]int32, indexSlots), maphash.MakeSeed()
	}
	s, ok := b.find(k)
	if ok {
		b.vals[b.index[s]-1] = v
		return
	}
	if b.n == retiredHistory {
		b.evict()
		s, _ = b.find(k) // the shift may have opened a slot on k's probe path
	} else {
		b.n++
	}
	b.keys[b.next], b.vals[b.next] = k, v
	b.index[s] = int32(b.next + 1)
	b.next = (b.next + 1) % retiredHistory
}

// evict drops the oldest key, the one at ring position next, which put then
// overwrites, and closes the gap in its probe run: each later entry of the
// run whose home slot does not lie cyclically after the gap moves back into
// it, so every remaining key is still reached from its home slot without
// crossing an empty one.
func (b *boundedMap[V]) evict() {
	gap, _ := b.find(b.keys[b.next])
	for s := (gap + 1) & (indexSlots - 1); b.index[s] != 0; s = (s + 1) & (indexSlots - 1) {
		h := b.home(b.keys[b.index[s]-1])
		if (s-h)&(indexSlots-1) >= (s-gap)&(indexSlots-1) {
			b.index[gap] = b.index[s]
			gap = s
		}
	}
	b.index[gap] = 0
}
