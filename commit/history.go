package commit

// retiredHistory is how many recently finished transaction IDs a host
// remembers: long enough that a straggler message (a helper reply landing
// after the decision, a retransmission racing the cleanup) is dropped
// instead of buffered forever, that a replayed Wait still gets its answer,
// and that a reused txID is rejected.
const retiredHistory = 4096

// boundedMap remembers the retiredHistory most recently inserted keys and
// evicts FIFO. It is the one bounded memory behind a Peer's outcome cache
// and stashed decision reports and a Cluster's txID-reuse check. The zero
// value is empty and ready; callers synchronize access.
type boundedMap[V any] struct {
	m     map[string]V
	order []string
}

func (b *boundedMap[V]) get(k string) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// put sets k's value. A new key evicts the oldest one beyond
// retiredHistory; overwriting keeps k's place in the queue.
func (b *boundedMap[V]) put(k string, v V) {
	if b.m == nil {
		b.m = make(map[string]V)
	}
	if _, ok := b.m[k]; !ok {
		b.order = append(b.order, k)
		if len(b.order) > retiredHistory {
			delete(b.m, b.order[0])
			b.order = b.order[1:]
		}
	}
	b.m[k] = v
}
