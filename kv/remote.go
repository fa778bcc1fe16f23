// The store's client side: a Store reaches its shards, each hosted by one
// commit.Peer, through a commit.Client — over TCP for OpenRemote, over a
// Cluster's in-memory mesh for Open — and by message only.
//
// Every question the client asks a shard is one relay (relayMsg) and one
// helper asks it (remoteBackend.ask): a read is a one-hop relay on its way
// out, a validation a one-hop relay already on its way back, and a first
// read may visit several far owners in one relay.
//
// A remote transaction costs WAN legs, and this file exists to spend as
// few as the protocol allows:
//
//  1. Reads are batched Query round-trips, one-hop relays:
//     Txn.GetMulti fans out one query per owning shard in parallel (one
//     leg of wall-clock for the whole read set), a per-owner coalescer
//     lets reads from different in-flight transactions that are pending
//     together share one query — and sends it at once, so a read is one
//     round trip however many queries to its owner are in flight — and a
//     client-side versioned read cache answers repeat reads with no leg
//     at all. A stale cache hit is safe by construction — the commit
//     revalidates every read version, so the worst case is an OCC abort,
//     which drops the entry. A key this store has an undecided write of
//     is never a hit (mark): its read goes to the shard, which parks it
//     behind the writer's intent and answers with the post-image.
//  2. Submit is one leg and waits for nothing. A transaction that wrote
//     nothing runs no commit protocol at all: one validation per shard it
//     read from, fanned out in parallel like the reads, and it commits iff
//     every shard says yes — read round plus validation round, nothing
//     staged anywhere. Its first read can take every far shard's two
//     rounds off the client's clock but one round trip (relayOf): the near
//     shards are read first, then one relay visits the far owners in turn
//     and comes back the same way. Each reads its keys fresh on the way out,
//     parking the relay at its peer while a writer's intent is on one of
//     them; the last one's read is its validation, and each earlier one
//     validates on the way back, over the far region's short links. For a transaction that writes, every
//     involved shard's footprint (footprintMsg) rides INSIDE the message
//     that asks one coordinator peer to run the commit, and the
//     coordinator's begin to each other peer carries that peer's slice.
//     Footprint and announcement share an envelope, so neither can
//     overtake the other; commit.Peer's ordering rule keeps a shard from
//     voting before its announcement arrived. That message is the only way a
//     footprint travels, so a transaction whose footprint is over its
//     budget (256 KiB, all shards together) fails at Submit and sends
//     nothing.
//  3. Every peer joins every instance, so any peer can coordinate: with a
//     geo profile the one nearest the client does, involved or not, and
//     the stage+go and result legs cross the client's shortest link. The peers
//     run the commit protocol among themselves and the client only learns
//     the result.
//
// Once the stage+go is sent the protocol owns the outcome: the client never
// releases a footprint, because a one-sided release could break atomicity,
// and a peer stages a footprint only when it runs the transaction, so a
// client crash leaves no footprint behind that the protocol does not
// resolve.

package kv

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// WAN-leg accounting: mLegs counts the sequential round-trip phases remote
// transactions paid (a parallel fan-out is one phase — it costs one RTT of
// wall-clock); mReadBatches counts the relays that read — coalesced reads
// and first-read relays, not validations — actually put on the wire, so
// batches much smaller than reads means the coalescer and the cache are
// doing their jobs. The geo bench reports both per transaction.
var (
	mLegs        = obs.M.Counter("kv.remote.legs")
	mReadBatches = obs.M.Counter("kv.remote.read.batches")
	mReadRetries = obs.M.Counter("kv.remote.read.retries")
)

// defaultCacheCapacity is a store's read-cache size in entries. The
// cache gets no staleness bound: the first abort a stale entry causes drops
// it (note), so an age limit would only evict entries still current.
const defaultCacheCapacity = 4096

// ServeShard hosts shard `index` (0-based) as commit peer index+1 listening
// on addrs[index]. Run one per process — or several in one process for
// tests — and point OpenRemote at the same addrs.
func ServeShard(index int, addrs []string, opts commit.Options) (*commit.Peer, error) {
	if len(addrs) < 2 {
		return nil, fmt.Errorf("%w: got %d peers", ErrTooFewShards, len(addrs))
	}
	if index < 0 || index >= len(addrs) {
		return nil, fmt.Errorf("kv: shard index %d out of range 0..%d", index, len(addrs)-1)
	}
	p, err := commit.NewPeer(index+1, addrs, NewShard(index), opts)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	return p, nil
}

// OpenRemote creates a store whose shards are remote: addrs[i] is the
// listen address of the peer hosting shard i (see ServeShard). clientID
// must be outside the peer range 1..len(addrs) — use len(addrs)+1,
// len(addrs)+2, ... for concurrent clients, and give every client a
// distinct ID. opts must agree with the peers' (same protocol, same
// timeout base, same Net profile) for the deployment to behave. The
// store's client sends every write transaction's commit at once: nothing
// bounds how many run but the callers.
//
// The store starts with the versioned read cache enabled and no staleness
// bound; resize or disable it with Store.ConfigureReadCache.
func OpenRemote(clientID int, addrs []string, opts commit.Options) (*Store, error) {
	if len(addrs) < 2 {
		return nil, fmt.Errorf("%w: got %d peers", ErrTooFewShards, len(addrs))
	}
	cl, err := commit.NewClient(clientID, addrs, opts)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	return newStore(cl, len(addrs), opts), nil
}

// remoteBackend is how a Store reaches its shards: through a commit.Client,
// whose transport is TCP or a Cluster's mesh.
type remoteBackend struct {
	client     *commit.Client
	n          int
	net        *live.NetProfile
	cache      *readCache       // nil = disabled
	coalescers []*readCoalescer // by owning peer (1-based); [0] unused
}

// errStoreClosed fails a read batch that Store.Close caught before it left.
var errStoreClosed = errors.New("store closed")

// readBatch is one coalesced wire read: the deduplicated keys headed to
// one owner (fixed once its sender ran), and (after done closes) their
// results or the shared error.
// Riders find their answer via pos; error demux is per caller — everyone
// on a failed batch gets the same owner-attributed error, wrapped by the
// caller with whatever context it has.
type readBatch struct {
	keys []string
	pos  map[string]int
	done chan struct{}
	res  []readResult
	err  error
}

// readCoalescer merges concurrent reads bound for one shard owner: the first
// reader to find nothing pending opens a batch and queues it for the owner's
// sender, and every reader that arrives before the sender takes it rides the
// same relay. The sender, one long-lived worker per owner, takes the batch as
// it is and puts it on the wire at once — a read never waits for the reply to
// somebody else's query, so it costs one round trip however many queries to
// its owner are already in flight.
type readCoalescer struct {
	b      *remoteBackend
	owner  int
	sender *live.Inbox[*readBatch] // stopped by Store.Close

	mu      sync.Mutex
	pending *readBatch // open: its sender has not taken it yet
}

// newCoalescers starts one coalescer, and its sender, per owner 1..n.
func (b *remoteBackend) newCoalescers() {
	b.coalescers = make([]*readCoalescer, b.n+1)
	for owner := 1; owner <= b.n; owner++ {
		co := &readCoalescer{b: b, owner: owner}
		co.sender = live.NewInbox(co.send)
		b.coalescers[owner] = co
	}
}

func (b *remoteBackend) coalescer(owner int) *readCoalescer { return b.coalescers[owner] }

// close stops every owner's sender and fails the batch each had not taken
// yet: nothing else would resolve it.
func (b *remoteBackend) close() {
	for _, co := range b.coalescers[1:] {
		co.sender.Close()
		co.mu.Lock()
		batch := co.pending
		co.pending = nil
		co.mu.Unlock()
		if batch != nil {
			batch.err = errStoreClosed
			close(batch.done)
		}
	}
}

// enqueue adds keys to the owner's open batch (deduplicated: two
// transactions reading one key share a slot), opening one and queueing it
// for the sender if there is none, and returns the batch to wait on.
func (co *readCoalescer) enqueue(keys []string) *readBatch {
	co.mu.Lock()
	defer co.mu.Unlock()
	batch := co.pending
	if batch == nil {
		batch = &readBatch{pos: make(map[string]int, len(keys)), done: make(chan struct{})}
		if !co.sender.Push(batch) {
			batch.err = errStoreClosed
			close(batch.done)
			return batch
		}
		co.pending = batch
	}
	for _, k := range keys {
		if _, ok := batch.pos[k]; !ok {
			batch.pos[k] = len(batch.keys)
			batch.keys = append(batch.keys, k)
		}
	}
	return batch
}

// send, the owner's sender, closes batch to further readers and puts it on
// the wire, one read: a one-hop relay whose reply fills the cache and
// resolves the batch. Its verdict is ignored: reads that run in parallel are
// not ordered before one another, so no read of a fan-out validates. The
// read is bounded by the client's own deadline (a multiple of the timeout
// unit), not any single caller's context: the batch serves many callers,
// each of which stops *waiting* when its own context expires.
func (co *readCoalescer) send(batch *readBatch) {
	co.mu.Lock()
	if co.pending != batch {
		co.mu.Unlock()
		return // Store.Close failed it
	}
	co.pending = nil
	co.mu.Unlock()
	co.b.ask([]relayHop{{Peer: core.ProcessID(co.owner), Keys: batch.keys}}, false, func(hops []relayHop, err error) {
		if err == nil {
			batch.res = co.b.got(hops[0])
		}
		batch.err = err
		close(batch.done)
	})
}

// ask sends a relay along hops, to the first of them, and hands done its hops
// once it is back, checked to be the ones sent with a read of every key; done
// runs once, on the client's delivery path or its sweep, and must not block.
// back sends a one-hop relay already on its way back: a validation of the
// versions in its Got.Vers, which is never retried. A read, the relay of a
// first read included, counts as a read batch and, when the client's own
// (generous) deadline expires — a reply lost under load — is asked once
// more: the coalescer fans a single batch failure out to every merged
// reader, and a relay's failure is a transaction's, so a transient loss is
// disproportionately expensive.
func (b *remoteBackend) ask(hops []relayHop, back bool, done func([]relayHop, error)) {
	m := relayMsg{N: b.n, Client: core.ProcessID(b.client.ID()), Back: back, Hops: hops}
	first := int(hops[0].Peer)
	retry := !back
	var answered func(commit.Message, error)
	answered = func(reply commit.Message, err error) {
		if retry && errors.Is(err, context.DeadlineExceeded) {
			retry = false
			mReadRetries.Add(1)
			b.client.QueryFunc(first, m, answered)
			return
		}
		if err != nil {
			done(nil, fmt.Errorf("shard owner P%d: %w", first, err))
			return
		}
		r, ok := reply.(relayMsg)
		ok = ok && len(r.Hops) == len(hops)
		for j := 0; ok && j < len(hops); j++ {
			ok = r.Hops[j].Peer == hops[j].Peer && len(r.Hops[j].Got.Vals) == len(hops[j].Keys)
		}
		if !ok {
			done(nil, fmt.Errorf("shard owner P%d: malformed reply %T", first, reply))
			return
		}
		done(r.Hops, nil)
	}
	if !back {
		mReadBatches.Add(1)
	}
	b.client.QueryFunc(first, m, answered)
}

// got returns what hop h read, key by key, and caches it.
func (b *remoteBackend) got(h relayHop) []readResult {
	res := make([]readResult, len(h.Keys))
	for k, key := range h.Keys {
		res[k] = readResult{val: h.Got.Vals[k], ok: h.Got.Oks[k], ver: h.Got.Vers[k]}
		b.cache.put(key, h.Got.Vals[k], h.Got.Oks[k], h.Got.Vers[k])
	}
	return res
}

// await blocks until the batch resolves or ctx expires (the batch flies on
// for its other riders either way).
func await(ctx context.Context, batch *readBatch) error {
	select {
	case <-batch.done:
		return batch.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// read returns key's latest committed state, never from the read cache: a
// non-transactional read has no commit to catch a stale version. Like every
// read it waits out a prepared writer's intent on the key; ctx bounds the
// read leg and that wait.
func (b *remoteBackend) read(ctx context.Context, key string) (readResult, error) {
	out := make([]readResult, 1)
	err := b.readInto(ctx, []string{key}, out, map[int][]int{shardIndex(key, b.n) + 1: {0}})
	return out[0], err
}

// readMulti answers every key in input order, serving what it can from the
// cache and fanning the misses out through the per-owner coalescers in
// parallel — one WAN round trip of wall-clock for the whole set, shared
// with any concurrent readers of the same owners. On a transaction's first
// read the plan of relayOf may replace that: the relay owners' keys are
// left out of the fan-out and read, all of them and fresh, in one relay
// once it returned. The owners whose read was also their validation are
// returned.
func (b *remoteBackend) readMulti(ctx context.Context, keys []string, first bool) ([]readResult, []int, error) {
	out := make([]readResult, len(keys))
	owners := make(map[int][]int) // owner -> positions in keys
	misses := make(map[int][]int) // owner -> positions the cache did not answer
	for i, key := range keys {
		owner := shardIndex(key, b.n) + 1
		owners[owner] = append(owners[owner], i)
		if val, ok, ver, hit := b.cache.get(key); hit {
			out[i] = readResult{val: val, ok: ok, ver: ver, cached: true}
		} else {
			misses[owner] = append(misses[owner], i)
		}
	}
	var route []int
	if first {
		route = b.relayOf(owners, misses)
		for _, o := range route {
			delete(misses, o)
		}
	}
	if err := b.readInto(ctx, keys, out, misses); err != nil || route == nil {
		return out, nil, err
	}
	validated, err := b.relay(ctx, keys, out, owners, route)
	return out, validated, err
}

// relay reads keys[i] for every position i of every owner in route, fresh,
// with one relay that visits the owners in route order, and writes the
// answers into out: one client round trip for all of them. It returns the
// owners whose read was also their validation.
func (b *remoteBackend) relay(ctx context.Context, keys []string, out []readResult, owners map[int][]int, route []int) ([]int, error) {
	mLegs.Add(1)
	hops := make([]relayHop, len(route))
	for j, o := range route {
		hops[j] = relayHop{Peer: core.ProcessID(o), Keys: make([]string, len(owners[o]))}
		for k, i := range owners[o] {
			hops[j].Keys[k] = keys[i]
		}
	}
	var back []relayHop
	batch := &readBatch{done: make(chan struct{})}
	b.ask(hops, false, func(h []relayHop, err error) {
		back, batch.err = h, err
		close(batch.done)
	})
	if err := await(ctx, batch); err != nil {
		return nil, fmt.Errorf("relay %q: %w", keys[owners[route[0]][0]], err)
	}
	var validated []int
	for j, o := range route {
		for k, r := range b.got(back[j]) {
			out[owners[o][k]] = r
		}
		if back[j].OK {
			validated = append(validated, o)
		}
	}
	return validated, nil
}

// readInto reads keys[i] for every position i listed under its owner in
// byOwner, one coalesced query per owner in parallel — one leg of
// wall-clock — and writes the answers into out.
func (b *remoteBackend) readInto(ctx context.Context, keys []string, out []readResult, byOwner map[int][]int) error {
	if len(byOwner) == 0 {
		return nil
	}
	mLegs.Add(1) // the fan-out is parallel: one sequential phase
	type flight struct {
		owner int
		batch *readBatch
		idxs  []int
	}
	flights := make([]flight, 0, len(byOwner))
	for owner, idxs := range byOwner {
		ks := make([]string, len(idxs))
		for j, i := range idxs {
			ks[j] = keys[i]
		}
		flights = append(flights, flight{owner: owner, batch: b.coalescer(owner).enqueue(ks), idxs: idxs})
	}
	for _, f := range flights {
		if err := await(ctx, f.batch); err != nil {
			return fmt.Errorf("read %q via P%d: %w", keys[f.idxs[0]], f.owner, err)
		}
		for _, i := range f.idxs {
			out[i] = f.batch.res[f.batch.pos[keys[i]]]
		}
	}
	return nil
}

// relayOf plans a transaction's first read: the route of its relay — the
// owners it visits, in order — or nil when a relay does not pay. The route
// holds the read set's farthest owner by round trip, a, ties to the lowest
// index, and with a profile every other owner in a's region, in index
// order; without one every round trip is one unit and a goes alone.
// Reading every other owner's misses first, the relay then, and validating
// only the others costs miss_non + rtt(a) + hops + all_non, where hops is
// the round trips between consecutive owners on the route; the plain plan,
// every miss then a validation fan-out as slow as a, costs
// miss_all + rtt(a). Each other term is the slowest round trip of its set,
// and rtt(a) cancels. So without a profile only a single-owner read set
// with a miss is relayed.
func (b *remoteBackend) relayOf(owners, misses map[int][]int) []int {
	rtt := func(from, to int) time.Duration {
		if b.net == nil {
			return 1
		}
		return 2 * b.net.DelayBetween(core.ProcessID(from), core.ProcessID(to))
	}
	client := b.client.ID()
	a := 0
	for o := range owners {
		if a == 0 || rtt(client, o) > rtt(client, a) || rtt(client, o) == rtt(client, a) && o < a {
			a = o
		}
	}
	route := []int{a}
	if b.net != nil {
		region := b.net.RegionOf(core.ProcessID(a))
		for o := range owners {
			if o != a && b.net.RegionOf(core.ProcessID(o)) == region {
				route = append(route, o)
			}
		}
		sort.Ints(route)
	}
	var missNon, allNon, missAll, hops time.Duration
	for j := 1; j < len(route); j++ {
		hops += rtt(route[j-1], route[j])
	}
	for o := range owners {
		if len(misses[o]) > 0 {
			missAll = max(missAll, rtt(client, o))
		}
		if !slices.Contains(route, o) {
			allNon = max(allNon, rtt(client, o))
			if len(misses[o]) > 0 {
				missNon = max(missNon, rtt(client, o))
			}
		}
	}
	if missNon+allNon+hops < missAll {
		return route
	}
	return nil
}

// note maintains the read cache from a decided transaction: a committed
// read-modify-write's post-commit version is exactly readVersion+1 (the
// write intent held from Prepare through Commit excluded every other
// writer), so the freshest possible entry costs nothing; a blind write or
// delete invalidates (the new version is unknown client-side); an abort or
// a refused validation drops every key the transaction read — the entries
// it fetched itself as much as its cache hits, or the next reader of the
// stale one aborts too — and counts toward the stale-abort metric if it
// consumed a hit. cached lists the keys whose reads were cache hits.
func (b *remoteBackend) note(committed bool, reads map[string]uint64, writes map[string]write, cached []string) {
	if b.cache == nil {
		return
	}
	if committed {
		for key, w := range writes {
			if ver, wasRead := reads[key]; wasRead && !w.tombstone {
				b.cache.put(key, w.value, true, ver+1)
			} else {
				b.cache.invalidate(key)
			}
		}
		return
	}
	if len(cached) > 0 {
		mCacheStaleAbort.Add(1)
	}
	for key := range reads {
		b.cache.invalidate(key)
	}
}

// mark counts an undecided write of this store on every key of w, before
// its footprint leaves; until unmark takes the count back, after note, the
// read cache serves none of them. drop also drops the keys, for a write
// whose future resolved with an error: it may have applied.
func (b *remoteBackend) mark(w map[string]write)              { b.cache.mark(w) }
func (b *remoteBackend) unmark(w map[string]write, drop bool) { b.cache.unmark(w, drop) }

// validate fans a validation, a one-hop relay already on its way back, out
// to every owner of a key in reads, in parallel: one WAN round trip of
// wall-clock, the read-only transaction's whole commit. done gets the
// verdict once, on the client's delivery path or its sweep, and must not
// block. A refusal is final whatever the other owners say, so it is handed
// over at once; an owner whose answer never came is an error, never a yes or
// a no.
func (b *remoteBackend) validate(reads map[string]uint64, done func(ok bool, err error)) {
	hops := validationHops(reads, b.n)
	mLegs.Add(1)
	var mu sync.Mutex
	left := len(hops)
	var firstErr error
	for _, h := range hops {
		b.ask([]relayHop{h}, true, func(r []relayHop, err error) {
			mu.Lock()
			left--
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("kv: validate: %w", err)
			}
			refused := err == nil && !r[0].OK
			last := left == 0
			verdict := done
			if refused || last {
				done = nil // answered: a later answer has nothing to add
			}
			err = firstErr
			mu.Unlock()
			switch {
			case verdict == nil:
			case refused:
				verdict(false, nil)
			case last:
				verdict(err == nil, err)
			}
		})
	}
}

// submit ships every shard's footprint — fps holds each involved peer's
// slice, keyed by peer (1-based), which that peer stages right before its
// Prepare — inside the one message that asks the coordinator to run the
// commit: one leg. Once it is sent the peers own the staged state. A
// footprint over the message budget is refused before anything is sent
// (commit.ErrStageTooLarge).
func (b *remoteBackend) submit(ctx context.Context, txID string, fps map[int]commit.Message) (*commit.Txn, error) {
	idxs := make([]int, 0, len(fps))
	for peer := range fps {
		idxs = append(idxs, peer-1)
	}
	sort.Ints(idxs)
	coord := coordinator(b.net, core.ProcessID(b.client.ID()), b.n, idxs)
	ct, err := b.client.StageGoAll(ctx, txID, coord, fps)
	if err != nil {
		return nil, fmt.Errorf("kv: %s: %w", txID, err)
	}
	mLegs.Add(1)
	return ct, nil
}

// coordinator picks the peer (1..n) that drives the commit of a transaction
// whose involved shards are idxs (sorted). Every peer joins every instance
// and an uninvolved one votes yes, so with a geo profile it is the peer
// nearest the client — the go and result legs are the only ones the client
// waits on — with ties going to an involved peer, then the lowest index.
// Without a profile it is the lowest involved index.
func coordinator(net *live.NetProfile, client core.ProcessID, n int, idxs []int) int {
	best := idxs[0] + 1
	if net == nil {
		return best
	}
	delay := func(peer int) time.Duration { return net.DelayBetween(client, core.ProcessID(peer)) }
	// The involved peers first, so that only a strictly nearer one displaces
	// them.
	for _, i := range idxs {
		if delay(i+1) < delay(best) {
			best = i + 1
		}
	}
	for peer := 1; peer <= n; peer++ {
		if delay(peer) < delay(best) {
			best = peer
		}
	}
	return best
}
