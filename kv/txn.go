package kv

import (
	"context"
	"fmt"
	"slices"

	"atomiccommit/commit"
)

// readVal caches one read so repeated Gets inside a transaction observe one
// consistent value.
type readVal struct {
	value string
	ok    bool
}

// Txn is a transaction builder: Get/Put/Delete buffer a read set (with the
// versions observed) and a write set client-side; Commit or Submit routes
// the footprint to the involved shards and runs one atomic-commit instance
// across the whole store — or, when the write set is empty, one validation
// query per shard read from whose read was not also its validation, and no
// instance at all. A Txn is single-use and not safe for concurrent use.
type Txn struct {
	s           *Store
	ctx         context.Context // bounds read legs; Background when unset
	reads       map[string]uint64
	cache       map[string]readVal
	writes      map[string]write
	cachedReads []string // keys served from the client-side read cache
	validated   []int    // peers whose first read was also their validation
	submitted   bool
	err         error // sticky: a failed read poisons the transaction
}

// WithContext sets the context bounding the transaction's read legs (every
// read is a round trip to its shard's peer) and a read's wait for a
// prepared writer's decision; Submit/Commit take their own context for the
// commit itself. Returns t for chaining.
func (t *Txn) WithContext(ctx context.Context) *Txn {
	t.ctx = ctx
	return t
}

func (t *Txn) readCtx() context.Context {
	if t.ctx != nil {
		return t.ctx
	}
	return context.Background()
}

// use panics if the transaction was already submitted: its footprint has
// been copied to the shards, so later operations would be silently dropped.
func (t *Txn) use() {
	if t.submitted {
		panic("kv: operation on a submitted transaction")
	}
}

// Get reads a key: the transaction's own pending write if it has one, the
// cached first read otherwise, else the latest committed value (whose
// version is recorded and revalidated at commit). A failed read reports
// absent and poisons the transaction — Submit will return the error instead
// of committing on incomplete data. Use Read to observe read errors directly.
func (t *Txn) Get(key string) (string, bool) {
	v, ok, _ := t.Read(key)
	return v, ok
}

// Read is Get with the read's error exposed: an unreachable shard owner, a
// closed store, or the transaction's context ending while the read waits for
// a prepared writer's decision.
func (t *Txn) Read(key string) (string, bool, error) {
	t.use()
	if t.err != nil {
		return "", false, t.err
	}
	if w, ok := t.writes[key]; ok {
		return w.value, !w.tombstone, nil
	}
	if _, ok := t.cache[key]; !ok {
		if err := t.fetch([]string{key}); err != nil {
			return "", false, err
		}
	}
	r := t.cache[key]
	return r.value, r.ok, nil
}

// fetch reads keys from the shards into the read set. Only the first read
// may validate inside the read; a later one clears those validations, which
// then no longer follow every read of the transaction.
func (t *Txn) fetch(keys []string) error {
	rs, validated, err := t.s.b.readMulti(t.readCtx(), keys, len(t.reads) == 0)
	if err != nil {
		t.err = fmt.Errorf("kv: %w", err)
		return t.err
	}
	t.validated = validated
	for i, key := range keys {
		t.reads[key] = rs[i].ver
		t.cache[key] = readVal{value: rs[i].val, ok: rs[i].ok}
		if rs[i].cached {
			t.cachedReads = append(t.cachedReads, key)
		}
	}
	return nil
}

// GetMulti reads many keys at once, in input order. The whole miss set costs
// at most one round trip of wall-clock: the store fans out one batched query
// per owning shard in parallel (and the client-side read cache may answer
// some keys with no round trip at all). A transaction's first read may
// instead read its farthest shards after the others, in one relay, when that
// spares a read-only commit their validation. Keys already written or read
// by this transaction are served from its own buffers, like Get. A failed
// read poisons the transaction.
func (t *Txn) GetMulti(keys ...string) ([]string, []bool, error) {
	t.use()
	if t.err != nil {
		return nil, nil, t.err
	}
	var missing []string
	seen := make(map[string]struct{}, len(keys))
	for _, key := range keys {
		if _, ok := t.writes[key]; ok {
			continue
		}
		if _, ok := t.cache[key]; ok {
			continue
		}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		missing = append(missing, key)
	}
	if len(missing) > 0 {
		if err := t.fetch(missing); err != nil {
			return nil, nil, err
		}
	}
	vals := make([]string, len(keys))
	oks := make([]bool, len(keys))
	for i, key := range keys {
		if w, ok := t.writes[key]; ok {
			vals[i], oks[i] = w.value, !w.tombstone
			continue
		}
		r := t.cache[key]
		vals[i], oks[i] = r.value, r.ok
	}
	return vals, oks, nil
}

// Put buffers a write of key = value.
func (t *Txn) Put(key, value string) {
	t.use()
	t.writes[key] = write{value: value}
}

// Delete buffers a deletion of key.
func (t *Txn) Delete(key string) {
	t.use()
	t.writes[key] = write{tombstone: true}
}

// Pending is the future of a submitted transaction, wrapping the commit
// client's own future. Whatever the outcome does to the store's read
// cache (fresh entries for committed writes, invalidations after an abort
// or a refused validation) is done before Done closes, so a follow-up read
// on this store observes the outcome: read-your-writes across transactions.
type Pending struct {
	id  string
	txn *commit.Txn
}

// TxID returns the transaction's identifier.
func (p *Pending) TxID() string { return p.id }

// Done is closed once the outcome is available.
func (p *Pending) Done() <-chan struct{} { return p.txn.Done() }

// Wait blocks until the transaction decides or ctx expires, returning the
// decision: true = committed everywhere, false = aborted (a conflict is a
// normal abort, not an error).
func (p *Pending) Wait(ctx context.Context) (bool, error) { return p.txn.Wait(ctx) }

// Submit hands the transaction, with every involved shard's slice of its
// footprint, to a coordinating peer and returns a future immediately; each
// shard stages its slice right before it votes. ctx bounds the wait for the
// outcome: a future that resolves with ctx's error leaves the transaction to
// its peers, which decide it and release its intents. The whole footprint
// travels in one message, so one whose encoding exceeds 256 KiB, all shards
// together, is refused with an error wrapping commit.ErrStageTooLarge before
// anything runs. A transaction that wrote nothing runs no protocol instance:
// the future resolves committed iff every shard it read from, but those its
// relay validated, validates its reads (see the package comment), with an
// error if some shard's answer never came; one with nothing left to validate
// commits at once.
func (t *Txn) Submit(ctx context.Context) (*Pending, error) {
	if t.submitted {
		return nil, fmt.Errorf("kv: transaction already submitted")
	}
	t.submitted = true
	if t.err != nil {
		return nil, t.err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	txID := t.s.nextTxID()
	if len(t.writes) == 0 {
		reads := t.reads
		if len(t.validated) > 0 {
			reads = make(map[string]uint64, len(t.reads))
			for key, ver := range t.reads {
				if !slices.Contains(t.validated, shardIndex(key, t.s.nshards)+1) {
					reads[key] = ver
				}
			}
		}
		ct, resolve := commit.UnresolvedTxn(txID)
		if len(reads) == 0 {
			resolve(true, nil)
		} else {
			t.validate(ctx, reads, resolve)
		}
		return &Pending{id: txID, txn: ct}, nil
	}

	// Split the footprint by shard index; peer i+1 hosts shard i.
	byShard := make(map[int]*footprint)
	fp := func(i int) *footprint {
		f, ok := byShard[i]
		if !ok {
			f = &footprint{reads: make(map[string]uint64), writes: make(map[string]write)}
			byShard[i] = f
		}
		return f
	}
	for key, ver := range t.reads {
		fp(shardIndex(key, t.s.nshards)).reads[key] = ver
	}
	for key, w := range t.writes {
		fp(shardIndex(key, t.s.nshards)).writes[key] = w
	}
	msgs := make(map[int]commit.Message, len(byShard))
	for i, f := range byShard {
		msgs[i+1] = footprintToMsg(f)
	}

	t.s.b.mark(t.writes) // the cache holds their pre-images until note
	ct, err := t.s.b.submit(ctx, txID, msgs)
	if err != nil {
		t.s.b.unmark(t.writes, false) // nothing was sent
		return nil, err
	}
	// A decision feeds the store's read cache (fresh entries from committed
	// writes, invalidations after aborts) before the future resolves. A
	// future that resolved with an error (its context ended, or Store.Close)
	// notes nothing, and unmark drops the written keys: the write may have
	// applied.
	ct.OnResolve(func(committed bool, err error) {
		if err == nil {
			t.s.b.note(committed, t.reads, t.writes, t.cachedReads)
		}
		t.s.b.unmark(t.writes, err != nil)
	})
	return &Pending{id: txID, txn: ct}, nil
}

// validate resolves a read-only transaction by validating reads, the part of
// its read set its relay did not validate already, with whichever comes
// first: the verdict — once the read cache has dropped the keys a refusal
// found stale — or ctx's end, with ctx's error.
func (t *Txn) validate(ctx context.Context, reads map[string]uint64, resolve func(bool, error)) {
	var stop func() bool // nil: ctx never ends
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() {
			resolve(false, fmt.Errorf("kv: validate: %w", ctx.Err()))
		})
	}
	t.s.b.validate(reads, func(ok bool, err error) {
		if err == nil {
			t.s.b.note(ok, t.reads, nil, t.cachedReads)
		}
		if stop == nil || stop() {
			resolve(ok, err)
		}
	})
}

// Commit submits the transaction and waits for its decision: true =
// committed everywhere, false = aborted. An abort due to a conflicting
// concurrent transaction is a normal outcome (retry with a fresh Txn), not
// an error.
func (t *Txn) Commit(ctx context.Context) (bool, error) {
	p, err := t.Submit(ctx)
	if err != nil {
		return false, err
	}
	return p.Wait(ctx)
}
