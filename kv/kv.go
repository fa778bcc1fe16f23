// Package kv is a sharded transactional key-value store driven by a
// commit.Client: the repository's first stateful subsystem, and the
// workload that makes abort behavior real.
//
// The store partitions the keyspace across shards by key hash; every shard
// is one commit participant, so a transaction that writes is one
// atomic-commit instance of whichever protocol the store was opened with
// (INBAC by default). Concurrency control is Helios-style conflict voting
// from the paper's introduction, per key:
//
//   - A transaction buffers its reads (with the version observed) and
//     writes client-side; nothing touches shard state until commit.
//   - Prepare stages the transaction's footprint on each involved shard:
//     it validates that every read version is still current and acquires
//     per-key intents — exclusive for writes, shared for reads —
//     all-or-nothing per shard. Any conflict makes that shard vote abort;
//     the commit protocol then guarantees the transaction aborts
//     everywhere.
//   - Commit applies the staged writes and bumps versions; Abort drops
//     them. Both release the intents.
//
// Because conflicts vote instead of block, there is no deadlock — a losing
// transaction aborts and the caller may retry. Committed transactions are
// serializable: a transaction's reads are revalidated under the same
// intents that exclude concurrent writers, so its effective execution point
// is its commit.
//
// A transaction that wrote nothing has no outcome for the shards to agree
// on, so it runs no atomic-commit instance and stages nothing: Submit asks
// each shard it read from, once, whether every version read is still current
// and no write intent is on the key, and the transaction commits iff all say
// yes (two-phase commit's read-only optimisation). It stays serializable
// because all of its reads finish before any validation starts: a committed
// writer W it overlaps either applied at a shared key before the read, or
// prepared there after the validation — anything in between shows as a
// changed version or a pending intent — and reading W's effect anywhere
// means W had already prepared everywhere, which rules out the second case
// at every other key. The intent check is what covers a W applied on one
// shard and still pending on another; see Shard.validate. A refusal is an
// ordinary abort: retry with a fresh Txn.
//
// A read never returns the pre-image of a prepared writer: one that meets a
// write intent waits for the writer's decision — at most one decision's time
// — and then reads what it applied. So a reader that learned of a commit,
// from the commit's reply or from another shard's read, sees it on every
// shard, and a read that returns found no intent on its keys.
//
// A transaction's first read can spare the far shards that question. Once
// every near read returned, one relay visits the read set's owners in the
// farthest region in turn: each reads its keys fresh and passes the relay
// on; the last one's read is its validation, since it found no write intent
// on its keys (r_a = t_a in the argument above); on the way back each
// earlier one validates what it read, after every later read. Only the near
// shards are validated after that. The far shards then cost one client round
// trip between them, and the near ones two: "Distributed Transactional
// Systems Cannot Be Fast" (PAPERS.md) rules out one round at every shard,
// and it counts rounds, not how long they take — each far shard still has
// its two, over its region's short links.
//
// Open and OpenRemote build the same store: a commit.Client that reaches
// every shard by message only. OpenRemote's shards each live in a
// commit.Peer process of their own (see ServeShard), reached over TCP; Open
// hosts every shard in-process on a commit.Cluster and attaches the client
// to the cluster's in-memory mesh, which carries the same wire messages.
// Either way every read is a Query round trip carrying a relay, the one
// query a shard answers, which a hop that must wait for a writer parks at
// its peer (a commit.Deferred answer) until the writer's decision is
// applied; Txn.Submit ships every shard's footprint inside the one message
// that asks a peer to drive the commit; and a read-only Submit is one more
// parallel round of relays, to every shard read from that its first read
// did not validate. A client-side read cache answers repeat reads with no
// round trip, but never a key the store itself is still writing: that entry
// is the writer's pre-image, which validation would refuse.
//
// A footprint reaches its shard inside the run that votes on it, right
// before Prepare, and only the decision releases it: a transaction whose
// context expired before its peers decided holds its intents until they do.
package kv

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"atomiccommit/commit"
)

// ErrTooFewShards reports an Open/OpenRemote call with fewer than 2 shards.
// Every shard is one participant of the underlying commit protocol, which
// is only defined for n >= 2; a single-shard store has no atomic-commit
// problem to solve and should use a plain map.
var ErrTooFewShards = errors.New("kv: a store needs at least 2 shards")

// readResult is one key's answer from a read: the committed value,
// presence, the version to validate at Prepare, and whether it was served
// from the client-side read cache (no round trip; the transaction remembers,
// for abort attribution and invalidation).
type readResult struct {
	val    string
	ok     bool
	ver    uint64
	cached bool
}

// footprint is a transaction's per-shard read and write set, split by
// shardIndex at submit time.
type footprint struct {
	reads  map[string]uint64
	writes map[string]write
}

// Store is a sharded transactional key-value store. All methods are safe
// for concurrent use.
type Store struct {
	close    func() // closes the Client, and an Open store's Cluster after it
	b        *remoteBackend
	nshards  int
	proto    commit.Protocol
	idPrefix string
	seq      atomic.Uint64

	// local and cluster are an Open store's in-process shards and the
	// Cluster hosting them; nil for OpenRemote. Package tests reach shard
	// internals and the mesh through them.
	local   []*Shard
	cluster *commit.Cluster
}

// Open creates a store hosting all shards in-process on a commit.Cluster,
// reached through a commit.Client on the cluster's in-memory mesh: the store
// OpenRemote builds, without sockets. shards must be >= 2 (ErrTooFewShards
// otherwise): each shard is one participant of the commit protocol. opts
// selects the protocol and its tuning; the zero Options means INBAC with
// the package defaults. As for OpenRemote, every write transaction's commit
// is sent at once, and read-only transactions run no commit.
func Open(shards int, opts commit.Options) (*Store, error) {
	if shards < 2 {
		return nil, fmt.Errorf("%w: got %d (each shard is one commit participant, and the protocol needs n >= 2)", ErrTooFewShards, shards)
	}
	local := make([]*Shard, shards)
	rs := make([]commit.Resource, shards)
	for i := range local {
		local[i] = NewShard(i)
		rs[i] = local[i]
	}
	cluster, err := commit.NewCluster(rs, opts)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	cl, err := cluster.NewClient(shards + 2) // the cluster's own client is shards+1
	if err != nil {
		cluster.Close()
		return nil, fmt.Errorf("kv: %w", err)
	}
	s := newStore(cl, shards, opts)
	s.local, s.cluster = local, cluster
	s.close = func() {
		cl.Close()
		cluster.Close()
	}
	return s, nil
}

// newStore builds the store over cl, a client of the n peers hosting the
// shards, with the read cache enabled and no staleness bound.
func newStore(cl *commit.Client, n int, opts commit.Options) *Store {
	b := &remoteBackend{client: cl, n: n, net: opts.Net, cache: newReadCache(defaultCacheCapacity)}
	b.newCoalescers()
	return &Store{
		close:    cl.Close,
		b:        b,
		nshards:  n,
		proto:    protoOf(opts),
		idPrefix: fmt.Sprintf("kv-c%d-", cl.ID()),
	}
}

// Close shuts the store down; in-flight transactions resolve with errors.
// For OpenRemote stores this closes the client side only — the shard
// peers keep running.
func (s *Store) Close() {
	s.b.close()
	s.close()
}

// Shards returns the number of shards (= commit participants).
func (s *Store) Shards() int { return s.nshards }

// Protocol returns the commit protocol the store was opened with, for
// benchmark and log labeling.
func (s *Store) Protocol() commit.Protocol { return s.proto }

// Txn starts a new transaction. The builder is not safe for concurrent use;
// build and commit it from one goroutine (many transactions may of course
// run concurrently).
func (s *Store) Txn() *Txn {
	return &Txn{
		s:      s,
		reads:  make(map[string]uint64),
		cache:  make(map[string]readVal),
		writes: make(map[string]write),
	}
}

// Get is a non-transactional read of the latest committed value. A failed
// read reports absent; use Read to see the error.
func (s *Store) Get(key string) (string, bool) {
	v, ok, err := s.Read(key)
	if err != nil {
		return "", false
	}
	return v, ok
}

// Read is a non-transactional read that surfaces errors (an unreachable
// shard owner, a closed store). Read always consults the owning shard —
// never the client-side read cache, which is only safe for transactional
// reads (a stale cached version there costs an OCC abort at Prepare; a
// non-transactional read has no such validation step). Like every read, it
// waits out a writer that holds the key prepared and returns what its
// decision left, so a commit any reader has seen is what Read returns, on
// whichever shard.
func (s *Store) Read(key string) (string, bool, error) {
	r, err := s.b.read(context.Background(), key)
	return r.val, r.ok, err
}

// ConfigureReadCache resizes the store's client-side versioned read cache
// to capacity entries; capacity 0 disables it — every transactional read
// pays its round trip again. A stale hit can only cost an OCC abort
// (Prepare revalidates every read version), never an incorrect commit, and
// that abort drops the entry, so the cache has no staleness bound. ttl is
// ignored and deprecated: it bounds nothing, and stays only so that callers
// which still pass it compile. Not safe to call concurrently with in-flight
// transactions.
func (s *Store) ConfigureReadCache(capacity int, ttl time.Duration) {
	s.b.cache = newReadCache(capacity)
}

// shardFor returns the in-process shard owning key. Only valid for Open
// stores; package tests use it to inspect shard internals.
func (s *Store) shardFor(key string) *Shard {
	return s.local[shardIndex(key, s.nshards)]
}

func (s *Store) nextTxID() string {
	return fmt.Sprintf("%s%d", s.idPrefix, s.seq.Add(1))
}

func protoOf(opts commit.Options) commit.Protocol {
	if opts.Protocol == "" {
		return commit.INBAC
	}
	return opts.Protocol
}
