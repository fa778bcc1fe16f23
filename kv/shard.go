package kv

import (
	"fmt"
	"hash/fnv"
	"sync"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/obs"
)

// Conflict metrics: why Prepare voted "no" or validate refused, split by
// cause. The commit layer's abort counters say a vote aborted the
// transaction; these say whether it was a stale read (a concurrent commit
// overwrote it) or a key intent held by another transaction.
var (
	mStaleRead = obs.M.Counter("kv.conflict.stale_read")
	mIntent    = obs.M.Counter("kv.conflict.intent")
)

// shardIndex maps a key to its shard (0-based) among n shards. Every
// client and every peer of one deployment must agree on n for the mapping
// to be consistent.
func shardIndex(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// write is one buffered mutation: a value, or a tombstone.
type write struct {
	value     string
	tombstone bool
}

// stagedTxn is a transaction's footprint on one shard, registered just
// before the commit protocol runs and consumed by the Resource callbacks.
type stagedTxn struct {
	reads  map[string]uint64 // key -> version observed at read time
	writes map[string]write
	locked bool // Prepare acquired this transaction's intents
}

// lockState is the per-key intent table entry: at most one exclusive writer,
// or any number of shared readers.
type lockState struct {
	writer  string
	readers map[string]struct{}
}

// Shard is one partition of the keyspace and one commit participant. It
// implements commit.Resource (Prepare votes on conflicts, Commit/Abort
// apply or drop the staged footprint) and commit.HostedResource (Stage
// receives a transaction's footprint from the peer's run, right before
// Prepare; Query runs its hop of a relay, the one kv query). A shard is
// reached by message only, whether its commit.Peer sits on an Open store's
// in-process mesh or in a process of its own behind TCP, and only a
// decision releases a footprint.
//
// A read never returns the pre-image of a prepared writer: one that meets a
// write intent waits on the key's waiter list, and the Commit or Abort that
// releases the intent wakes it.
type Shard struct {
	id int // 0-based; shard i is hosted by peer i+1 in a distributed store

	mu      sync.Mutex
	records map[string]record // every key ever written, deleted ones included
	staged  map[string]*stagedTxn
	locks   map[string]*lockState
	waiters map[string][]func() // by key: reads waiting for its write intent to go
}

// record is a key's committed state: its value, if present, and its version,
// bumped on every committed write. A delete clears present and keeps the
// version, so a read of the deleted key still validates against it. A key
// never written has the zero record: absent at version 0.
type record struct {
	value   string
	version uint64
	present bool
}

// NewShard creates shard index (0-based). In a distributed store, shard i
// is the resource of peer i+1.
func NewShard(index int) *Shard {
	return &Shard{
		id:      index,
		records: make(map[string]record),
		staged:  make(map[string]*stagedTxn),
		locks:   make(map[string]*lockState),
		waiters: make(map[string][]func()),
	}
}

// traceIntent records an intent acquire/conflict in the flight recorder.
// Shards are not processes, but the shard id (1-based, like ProcessID)
// slots into the event's Proc field so a merged timeline shows which
// partition objected.
func (sh *Shard) traceIntent(kind obs.EventKind, txID, key, note string) {
	if !obs.Default.Enabled() {
		return
	}
	obs.Default.Record(obs.Event{
		Kind: kind, TxID: txID, Proc: core.ProcessID(sh.id + 1), Note: note + " " + key,
	})
}

// readCommittedMulti answers a whole batch under one lock acquisition, so a
// coalesced read observes one consistent committed snapshot of the shard
// and the lock is not bounced once per key. While a write intent sits on any
// of the keys it reads nothing and reports false: the read would return the
// pre-image of a writer that may have decided already (see await).
func (sh *Shard) readCommittedMulti(keys []string) (r readReplyMsg, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, held := sh.writeHeld(keys); held {
		return r, false
	}
	r = readReplyMsg{
		Vals: make([]string, len(keys)),
		Oks:  make([]bool, len(keys)),
		Vers: make([]uint64, len(keys)),
	}
	for i, key := range keys {
		rec := sh.records[key]
		r.Vals[i], r.Oks[i], r.Vers[i] = rec.value, rec.present, rec.version
	}
	return r, true
}

// writeHeld returns the first of keys a write intent sits on. Callers hold
// sh.mu.
func (sh *Shard) writeHeld(keys []string) (string, bool) {
	for _, key := range keys {
		if l, held := sh.locks[key]; held && l.writer != "" {
			return key, true
		}
	}
	return "", false
}

// await calls wake once the first of keys that holds a write intent is
// released, from the Commit or Abort that releases it, after that call let go
// of sh.mu; with no intent on any of them, at once on the caller's goroutine.
// wake must read again, and may meet another intent. An intent is in doubt
// for at most one decision, and a waiting read holds none, so every wait
// ends unless the shard's peer stops deciding.
func (sh *Shard) await(keys []string, wake func()) {
	sh.mu.Lock()
	key, held := sh.writeHeld(keys)
	if held {
		sh.waiters[key] = append(sh.waiters[key], wake)
	}
	sh.mu.Unlock()
	if !held {
		wake()
	}
}

// Stage implements commit.HostedResource: txID's footprint on this shard,
// a footprintMsg that rode the client's stage+go or the coordinator's begin.
func (sh *Shard) Stage(txID string, m commit.Message) error {
	fp, ok := m.(footprintMsg)
	if !ok {
		return fmt.Errorf("kv: shard %d: unexpected stage payload %T", sh.id, m)
	}
	reads, writes, err := fp.sets()
	if err != nil {
		return fmt.Errorf("kv: shard %d: %w", sh.id, err)
	}
	// Keys in both sets are treated as writes for locking purposes.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.staged[txID] = &stagedTxn{reads: reads, writes: writes}
	return nil
}

// Query implements commit.HostedResource: every question a client asks a
// shard is a relay (relayMsg), of which this shard runs its hop and which it
// passes on to the process the hop names next — a read, a validation, or a
// part of a read that visits several owners. Anything else is an error, which
// the peer turns into silence.
func (sh *Shard) Query(m commit.Message) (commit.Message, error) {
	if rq, ok := m.(relayMsg); ok {
		return sh.relay(rq)
	}
	return nil, fmt.Errorf("kv: shard %d: unexpected query %T", sh.id, m)
}

// relay runs this shard's part of a relay and names where it goes next. On
// the way out the hop reads its keys and forwards the relay; a hop that meets
// a write intent on one of them answers parkedHop and runs again once the
// writer's decision is applied. The last hop's read is its validation — it
// waited out every intent — and it turns the relay back. On the way back a
// hop validates what it read on the way out — only now, after every later
// hop has read — and passes the relay on towards the first hop, which hands
// it to the client.
func (sh *Shard) relay(m relayMsg) (commit.Message, error) {
	if m.At < 0 || m.At >= len(m.Hops) || m.Hops[m.At].Peer != core.ProcessID(sh.id+1) {
		return nil, fmt.Errorf("kv: shard %d: relay not at this shard", sh.id)
	}
	m.Hops = append([]relayHop(nil), m.Hops...) // the answer is a new message
	h := &m.Hops[m.At]
	switch {
	case !m.Back:
		var ok bool
		if h.Got, ok = sh.readCommittedMulti(h.Keys); !ok {
			return parkedHop{sh, m}, nil
		}
		if m.At < len(m.Hops)-1 {
			m.At++
			return m, nil
		}
		h.OK, m.Back = true, true
	case len(h.Got.Vers) != len(h.Keys):
		return nil, fmt.Errorf("kv: shard %d: relay back with %d versions for %d keys", sh.id, len(h.Got.Vers), len(h.Keys))
	default:
		h.OK = sh.validate(h.Keys, h.Got.Vers)
	}
	m.At--
	return m, nil
}

// parkedHop is a relay hop that met a write intent on its way out, the
// commit.Deferred that Shard.relay answers with: awaited, it runs the hop
// again once the intent is released and hands over what that answers — the
// relay going on or back, or the hop parked again.
type parkedHop struct {
	sh *Shard
	m  relayMsg
}

// Kind implements core.Message. A parkedHop never crosses the wire.
func (parkedHop) Kind() string { return "KVPARKED" }

// Await implements commit.Deferred.
func (p parkedHop) Await(answer func(commit.Message)) {
	p.sh.await(p.m.Hops[p.m.At].Keys, func() {
		if reply, err := p.sh.relay(p.m); err == nil {
			answer(reply)
		}
	})
}

// validate is a read-only transaction's whole commit on this shard: yes iff
// every key still has the version that was read and no write intent of any
// transaction is on it — Prepare's read check without taking a shared read
// intent. Nothing is staged, no intent outlives the call and the shard
// learns no transaction ID; the transaction commits iff every shard it read
// from says yes (shared read intents remain for the read sets of read-write
// transactions, which need them until their writes apply).
//
// Why that is serializable: all of the transaction's reads r_k finish before
// any validation t_k starts. For a committed writer W and a key k both
// touch, a yes at t_k means either W applied at k before r_k, or W prepared
// at k's shard after t_k — anything in between shows as a changed version or
// a pending intent. "Read W's effect at k'" means W had decided, hence had
// prepared everywhere, before r_k' < t_k, which contradicts "prepared after
// t_k" at k; the same chain closes the cycle through any W' that depends on
// W. The intent check is what makes this hold across the cross-shard
// visibility gap (W applied on shard A, still holding its intent on shard
// B): without it the reader that saw W's write on A and the pre-image on B
// is told yes at B, a fractured read.
//
// The argument also holds with r_a = t_a at one shard a: a read there
// (readCommittedMulti) returns only once it found no write intent on any of
// the transaction's keys — it waited out every one it met — so it is this
// check's yes at the moment of the read. A relay (Shard.relay) makes a its
// last hop. The client reads its other shards first and sends the relay only
// once they returned; the relay reads at every hop on its way out, reaches a
// last, and validates each earlier hop only on its way back, after a's read;
// the client validates what is left only once the relay is back. So every
// read still precedes every validation. A one-hop relay is the case where a
// is the only far shard. Here an intent still refuses: the read waited out
// every intent it met, so one found now was taken after the read.
func (sh *Shard) validate(keys []string, vers []uint64) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, key := range keys {
		if sh.records[key].version != vers[i] {
			mStaleRead.Add(1)
			return false
		}
		if l, held := sh.locks[key]; held && l.writer != "" {
			mIntent.Add(1)
			return false
		}
	}
	return true
}

// Prepare implements commit.Resource: validate read versions and acquire
// every per-key intent, all-or-nothing. Any conflict — a stale read, a key
// intent held by another transaction — is a "no" vote, which the commit
// protocol turns into a global abort.
func (sh *Shard) Prepare(txID string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.staged[txID]
	if !ok {
		// This shard is not involved in the transaction; it has no reason
		// to object.
		return true
	}
	for key, ver := range st.reads {
		if sh.records[key].version != ver {
			// A concurrent transaction committed over our read.
			mStaleRead.Add(1)
			sh.traceIntent(obs.EvIntentConflict, txID, key, "stale-read")
			return false
		}
	}
	// Check the whole footprint first so acquisition is all-or-nothing: a
	// doomed transaction must not pin keys while it waits to abort.
	for key := range st.writes {
		if l, held := sh.locks[key]; held {
			if l.writer != "" && l.writer != txID {
				mIntent.Add(1)
				sh.traceIntent(obs.EvIntentConflict, txID, key, "write-write")
				return false
			}
			for r := range l.readers {
				if r != txID {
					mIntent.Add(1)
					sh.traceIntent(obs.EvIntentConflict, txID, key, "write-read")
					return false
				}
			}
		}
	}
	for key := range st.reads {
		if _, isWrite := st.writes[key]; isWrite {
			continue
		}
		if l, held := sh.locks[key]; held && l.writer != "" && l.writer != txID {
			mIntent.Add(1)
			sh.traceIntent(obs.EvIntentConflict, txID, key, "read-write")
			return false
		}
	}
	for key := range st.writes {
		sh.lock(key).writer = txID
		sh.traceIntent(obs.EvIntentAcquire, txID, key, "write")
	}
	for key := range st.reads {
		if _, isWrite := st.writes[key]; isWrite {
			continue
		}
		l := sh.lock(key)
		if l.readers == nil {
			l.readers = make(map[string]struct{})
		}
		l.readers[txID] = struct{}{}
	}
	st.locked = true
	return true
}

func (sh *Shard) lock(key string) *lockState {
	l, ok := sh.locks[key]
	if !ok {
		l = &lockState{}
		sh.locks[key] = l
	}
	return l
}

// Commit implements commit.Resource: apply the staged writes, bump
// versions, release intents.
func (sh *Shard) Commit(txID string) { sh.settle(txID, true) }

// Abort implements commit.Resource: drop the staged writes and release
// intents.
func (sh *Shard) Abort(txID string) { sh.settle(txID, false) }

// settle applies txID's staged writes if apply is set and drops its
// footprint; then, with sh.mu released, it wakes the reads that waited for a
// write intent it held.
func (sh *Shard) settle(txID string, apply bool) {
	sh.mu.Lock()
	if st, ok := sh.staged[txID]; ok && apply {
		for key, w := range st.writes {
			rec := record{version: sh.records[key].version + 1}
			if !w.tombstone {
				rec.value, rec.present = w.value, true
			}
			sh.records[key] = rec
		}
	}
	woken := sh.drop(txID)
	sh.mu.Unlock()
	for _, wake := range woken {
		wake()
	}
}

// drop removes a transaction's staged state and any intents it holds, and
// returns the waiters of the write intents it released. Callers hold sh.mu.
func (sh *Shard) drop(txID string) (woken []func()) {
	st, ok := sh.staged[txID]
	if !ok {
		return nil
	}
	delete(sh.staged, txID)
	if !st.locked {
		return nil
	}
	release := func(key string) {
		l, held := sh.locks[key]
		if !held {
			return
		}
		if l.writer == txID {
			l.writer = ""
			woken = append(woken, sh.waiters[key]...)
			delete(sh.waiters, key)
		}
		delete(l.readers, txID)
		if l.writer == "" && len(l.readers) == 0 {
			delete(sh.locks, key)
		}
	}
	for key := range st.writes {
		release(key)
	}
	for key := range st.reads {
		release(key)
	}
	return woken
}
