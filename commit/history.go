package commit

// retiredHistory is how many recently finished transaction IDs a host
// remembers. A peer retires a transaction when it applies the decision, so
// this is all it keeps of one from then on: long enough that a late protocol
// envelope (a vote or a plea for help landing after the decision) is
// answered with the outcome instead of buffered forever, that a replayed
// Wait or go still gets its answer, and that a reused txID is rejected.
const retiredHistory = 4096

// boundedMap remembers the retiredHistory most recently inserted keys and
// evicts FIFO. It is the one bounded memory behind a Peer's outcome cache
// and stashed decision reports and a Cluster's txID-reuse check. The keys sit
// in a fixed ring, so a put in steady state allocates nothing and an evicted
// key is let go at once. The zero value is empty and ready; callers
// synchronize access.
type boundedMap[V any] struct {
	m    map[string]V
	ring []string // m's keys in insertion order, made by the first put
	next int      // ring's slot for the next new key: the oldest, once full
}

func (b *boundedMap[V]) get(k string) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// put sets k's value. A new key evicts the oldest one beyond
// retiredHistory; overwriting keeps k's place in the queue.
func (b *boundedMap[V]) put(k string, v V) {
	if b.m == nil {
		b.m, b.ring = make(map[string]V), make([]string, retiredHistory)
	}
	if _, ok := b.m[k]; !ok {
		if len(b.m) == retiredHistory {
			delete(b.m, b.ring[b.next])
		}
		b.ring[b.next] = k
		b.next = (b.next + 1) % retiredHistory
	}
	b.m[k] = v
}
