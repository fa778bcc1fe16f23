// Package kv is a sharded transactional key-value store driven by the
// commit pipeline: the repository's first stateful subsystem, and the
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
// Over a remote runtime the first read can spare the far shards that
// question. Once every near read returned, one relay visits the read set's
// owners in the farthest region in turn: each reads its keys fresh and
// passes the relay on; the last one's read is its validation, since it
// found no write intent on its keys (r_a = t_a in the argument above); on
// the way back each earlier one validates what it read, after every later
// read. Only the near shards are validated after that. The far shards then
// cost one client round trip between them, and the near ones two:
// "Distributed Transactional Systems Cannot Be Fast" (PAPERS.md) rules out
// one round at every shard, and it counts rounds, not how long they take —
// each far shard still has its two, over its region's short links.
//
// The store runs over either of two runtimes behind the same Txn API:
//
//   - Open hosts every shard in-process on a commit.Cluster (goroutine
//     mesh). Reads and validations are function calls — a read that waits
//     for a writer waits on its caller's goroutine — and Txn.Submit hands
//     the cluster every shard's footprint with the transaction.
//   - OpenRemote hosts no shards at all: each shard lives in its own
//     commit.Peer process (see ServeShard), and the store talks to them
//     over TCP through a commit.Client — every read is a Query round trip
//     carrying a relay, the one query a shard answers, which a hop that
//     must wait for a writer parks at its peer (a commit.Deferred answer)
//     until the writer's decision is applied; Txn.Submit ships
//     every shard's footprint inside the one message that asks a peer to
//     drive the commit; and a read-only Submit is one more parallel round
//     of relays, to every shard read from that its first read did not
//     validate. A client-side read cache answers repeat reads with no
//     round trip, but never a key the store itself is still writing: that
//     entry is the writer's pre-image, which validation would refuse.
//
// Either way a footprint reaches its shard inside the run that votes on it,
// right before Prepare, and only the decision releases it: a transaction
// whose context expired before its peers decided holds its intents until
// they do.
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

// readResult is one key's answer from a backend read: the committed value,
// presence, the version to validate at Prepare, and whether it was served
// from the client-side read cache (no WAN leg; the transaction remembers,
// for abort attribution and invalidation).
type readResult struct {
	val    string
	ok     bool
	ver    uint64
	cached bool
}

// backend is the runtime-specific half of the store: how reads and
// validations reach a shard and how a transaction's footprints reach the
// commit protocol.
type backend interface {
	// read returns key's latest committed state, never from the client-side
	// read cache: a non-transactional read has no commit to catch a stale
	// version. Like every read it waits out a prepared writer's intent on
	// the key; ctx bounds the read leg and that wait.
	read(ctx context.Context, key string) (readResult, error)
	// readMulti returns the committed state of every key for a transaction,
	// in input order, answering from the read cache what it can and fanning
	// the rest out in one batched request per owning shard in parallel. On
	// the transaction's first read it may instead read the farthest owners
	// last, fresh and in one relay; it returns the owners (1-based) whose
	// read was also their validation (remoteBackend.readMulti).
	readMulti(ctx context.Context, keys []string, first bool) ([]readResult, []int, error)
	// submit starts the commit of txID with fps, each peer's slice of the
	// footprint keyed by peer (1-based), which the peer stages right before
	// its Prepare.
	submit(ctx context.Context, txID string, fps map[int]commit.Message) (*commit.Txn, error)
	// validate is the whole commit of a transaction that wrote nothing: it
	// asks every shard owning a key of reads whether the versions read still
	// stand with no write intent in the way (Shard.validate), and reports
	// true iff all said yes. Nothing is staged and no protocol instance
	// runs. An error means some shard's answer is unknown.
	validate(ctx context.Context, reads map[string]uint64) (bool, error)
	// note observes a decided transaction's outcome so the backend can
	// maintain its client-side read cache: committed read-modify-writes
	// become fresh entries, blind writes invalidate, and an abort or a
	// refused validation drops every key the transaction read (and counts
	// toward the stale-abort metric if any of them was a cache hit). cached
	// lists the keys whose reads were cache hits.
	note(committed bool, reads map[string]uint64, writes map[string]write, cached []string)
	// mark counts an undecided write of this store on every key of writes,
	// before its footprint leaves; until unmark takes the count back, after
	// note, the read cache serves none of them. drop also drops the keys,
	// for a write whose future resolved with an error: it may have applied.
	mark(writes map[string]write)
	unmark(writes map[string]write, drop bool)
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
	close    func() // closes the Cluster or Client beneath
	b        backend
	nshards  int
	proto    commit.Protocol
	idPrefix string
	seq      atomic.Uint64

	// local holds the in-process shards of an Open store; nil for
	// OpenRemote. Package tests reach shard internals through it.
	local []*Shard
}

// Open creates a store hosting all shards in-process on a commit.Cluster.
// shards must be >= 2 (ErrTooFewShards otherwise): each shard is one
// participant of the commit protocol. opts selects the protocol and its
// tuning; the zero Options means INBAC with the package defaults.
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
	cl, err := commit.NewCluster(rs, opts)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	return &Store{
		close:    cl.Close,
		b:        &localBackend{com: cl, shards: local},
		nshards:  shards,
		proto:    protoOf(opts),
		idPrefix: "kv-",
		local:    local,
	}, nil
}

// Close shuts the store down; in-flight transactions resolve with errors.
// For OpenRemote stores this closes the client side only — the shard
// peers keep running.
func (s *Store) Close() { s.close() }

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

// Get is a non-transactional read of the latest committed value. Over a
// remote runtime a failed read reports absent; use Read to see the error.
func (s *Store) Get(key string) (string, bool) {
	v, ok, err := s.Read(key)
	if err != nil {
		return "", false
	}
	return v, ok
}

// Read is a non-transactional read that surfaces runtime errors (an
// unreachable shard owner, a closed store). Local stores never error.
// Read always consults the owning shard — never the client-side read
// cache, which is only safe for transactional reads (a stale cached
// version there costs an OCC abort at Prepare; a non-transactional read
// has no such validation step). Like every read, it waits out a writer
// that holds the key prepared and returns what its decision left, so a
// commit any reader has seen is what Read returns, on whichever shard.
func (s *Store) Read(key string) (string, bool, error) {
	r, err := s.b.read(context.Background(), key)
	return r.val, r.ok, err
}

// ConfigureReadCache resizes the remote runtime's client-side versioned
// read cache to capacity entries; capacity 0 disables it — every
// transactional read pays its WAN round trip again. A stale hit can only
// cost an OCC abort (Prepare revalidates every read version), never an
// incorrect commit, and that abort drops the entry, so the cache OpenRemote
// builds has no staleness bound. ttl > 0 sets one anyway: entries older
// than ttl miss. No-op on local stores, which have no WAN to skip. Not safe
// to call concurrently with in-flight transactions.
func (s *Store) ConfigureReadCache(capacity int, ttl time.Duration) {
	if rb, ok := s.b.(*remoteBackend); ok {
		rb.cache = newReadCache(capacity, ttl)
	}
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

// localBackend serves an Open store: shards are in-process, so reads and
// validations are function calls.
type localBackend struct {
	com    *commit.Cluster
	shards []*Shard
}

// read waits out a write intent on key, on the caller's goroutine, before it
// reads (Shard.readWaiting).
func (b *localBackend) read(ctx context.Context, key string) (readResult, error) {
	r, err := b.shards[shardIndex(key, len(b.shards))].readWaiting(ctx, []string{key})
	if err != nil {
		return readResult{}, err
	}
	return readResult{val: r.Vals[0], ok: r.Oks[0], ver: r.Vers[0]}, nil
}

func (b *localBackend) readMulti(ctx context.Context, keys []string, _ bool) ([]readResult, []int, error) {
	out := make([]readResult, len(keys))
	for i, key := range keys {
		var err error
		if out[i], err = b.read(ctx, key); err != nil {
			return nil, nil, err
		}
	}
	return out, nil, nil
}

func (b *localBackend) note(bool, map[string]uint64, map[string]write, []string) {}
func (b *localBackend) mark(map[string]write)                                    {}
func (b *localBackend) unmark(map[string]write, bool)                            {}

func (b *localBackend) validate(_ context.Context, reads map[string]uint64) (bool, error) {
	for i, h := range validationHops(reads, len(b.shards)) {
		if !b.shards[i].validate(h.Keys, h.Got.Vers) {
			return false, nil
		}
	}
	return true, nil
}

func (b *localBackend) submit(ctx context.Context, txID string, fps map[int]commit.Message) (*commit.Txn, error) {
	ct, err := b.com.SubmitStaged(ctx, txID, fps)
	if err != nil {
		return nil, fmt.Errorf("kv: %s: %w", txID, err)
	}
	return ct, nil
}
