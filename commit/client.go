package commit

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
)

// Client drives transactions against a deployment of Peers without being a
// protocol participant itself: it asks one peer to coordinate the commit,
// handing it the per-resource footprints for the peers that host them
// (HostedResource), and resolves a Txn future from the coordinator's result.
// The kv package's remote runtime is the canonical caller.
//
// A client has its own process ID, which must be outside the peers' range
// 1..len(addrs) and unique among the deployment's clients: a peer answers on
// the connection a request came in on, and files that connection under the
// sender's ID. A client dials and never listens; it needs no address, and a
// peer that restarted answers as soon as the next request has redialed it.
// Cluster.NewClient attaches a client to a Cluster's in-memory mesh instead,
// and every Cluster drives its own commits through one.
//
// A future resolves once its coordinator has applied the decision to its own
// Resource; the other peers apply theirs on their own. Every submission is
// sent at once: the client does not bound how many run, so a caller that
// wants a bound keeps that many outstanding. A txID pending at the client
// is rejected — the second future resolves with an error — because peers
// route instances by txID. A txID resubmitted after it decided gets the
// decision its coordinator's outcome cache recorded, without another call
// to any Resource method, as long as the cache holds it (the last 4096
// transactions of that peer). IDs
// of the form "c<number>-<number>" are the clients' own: Submit allocates
// them, and a caller's txID of that form is rejected, so an allocated ID
// never names a transaction that already decided.
//
// Every call is bounded by a deadline derived from Options.Timeout — whatever
// the caller's context says — so a crashed peer yields an error within the
// protocol's timeout budget, never a hang. A submission's or a query's bound
// costs no goroutine and no timer of its own: one sweep per client serves
// them all.
type Client struct {
	id   core.ProcessID
	n    int // peers are 1..n
	opts Options
	tr   live.Transport

	mu      sync.Mutex
	pending map[string]*Txn        // submitted and unresolved, keyed by txID
	replies map[replyKey]awaitedBy // awaiting a query reply
	seq     uint64                 // names queries and allocated txIDs (seqID)
	// rr is Submit's round-robin over the coordinators, apart from seq so
	// that queries and allocated IDs do not skip coordinators.
	rr       uint64
	closed   bool
	sweeping bool // a sweep of pending and replies is armed (see sweep)
}

// replyKey files the one reply a query waits for: the query's ID, unique
// per client, and the peer it asked.
type replyKey struct {
	txID string
	from core.ProcessID
}

// awaitedBy is an outstanding query: the callback its reply, or its error,
// goes to, and when it was sent.
type awaitedBy struct {
	done  func(Message, error)
	since time.Time
}

// coordinateUnits bounds a submission: with no result after coordinateUnits
// timeout units, the sweep fails it with context.DeadlineExceeded. It is the
// one bound on a commit, for one the protocol cannot terminate (no correct
// majority) or whose coordinator crashed: far above any decision time,
// which is a few timeout units.
const coordinateUnits = 128

// queryUnits bounds a query: with no reply after queryUnits timeout units,
// the sweep fails it with context.DeadlineExceeded.
const queryUnits = 32

// sweepUnits is how often, in timeout units, the sweep looks while a
// submission or a query is outstanding.
const sweepUnits = 8

// NewClient connects a client with process ID id (id > len(addrs)) to the
// peers at addrs; addrs[i-1] is Pi's address, exactly as given to NewPeer.
func NewClient(id int, addrs []string, opts Options) (*Client, error) {
	if err := validateAddrs(addrs); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults(len(addrs))
	if err != nil {
		return nil, err
	}
	if id <= len(addrs) {
		return nil, fmt.Errorf("%w: client id %d must exceed the peer count %d", ErrPeerID, id, len(addrs))
	}
	tcp, err := live.NewTCP(core.ProcessID(id), addrs)
	if err != nil {
		return nil, err
	}
	if opts.Net != nil {
		tcp.SetShaper(opts.Net.Shaper(time.Now()))
	}
	return newClient(core.ProcessID(id), len(addrs), tcp, opts), nil
}

// newClient runs client id of a deployment of n peers over tr; opts already
// carry defaults.
func newClient(id core.ProcessID, n int, tr live.Transport, opts Options) *Client {
	c := &Client{
		id: id, n: n, opts: opts, tr: tr,
		pending: make(map[string]*Txn),
		replies: make(map[replyKey]awaitedBy),
	}
	tr.SetHandler(c.deliver)
	return c
}

// ID returns the client's process ID.
func (c *Client) ID() int { return int(c.id) }

func (c *Client) deliver(e live.Envelope) {
	switch e.Path {
	case queryReplyPath:
		if q, ok := c.takeQuery(replyKey{txID: e.TxID, from: e.From}); ok {
			q.done(e.Msg, nil)
		}
	case resultPath:
		m, ok := e.Msg.(resultMsg)
		if !ok {
			return
		}
		var err error
		if m.Err != "" {
			err = fmt.Errorf("commit: coordinator P%d: %s", e.From, m.Err)
		}
		c.finish(e.TxID, nil, err == nil && m.V == core.Commit, err)
	}
}

// finish settles t, the future pending under txID (nil: whichever is), with
// (ok, err). Whoever takes a future from pending — the result handler, its
// context's watch, a failed send, the sweep, Close — resolves it, so it
// resolves exactly once.
func (c *Client) finish(txID string, t *Txn, ok bool, err error) {
	c.mu.Lock()
	if t == nil {
		t = c.pending[txID]
	}
	mine := t != nil && c.pending[txID] == t
	if mine {
		delete(c.pending, txID)
	}
	c.mu.Unlock()
	if mine {
		t.resolve(ok, err)
	}
}

// expire resolves t, if it is still pending, with its context's error.
func (c *Client) expire(t *Txn) {
	c.finish(t.TxID, t, false, fmt.Errorf("commit: submit %s: %w", t.TxID, t.ctx.Err()))
}

// sweep resolves, with context.DeadlineExceeded, every submission whose
// coordinator has not answered within coordinateUnits — the commit cannot
// terminate, or its coordinator is dead; the peers keep running it and apply
// whatever they decide — and every query unanswered for queryUnits, and looks
// again every sweepUnits while either is outstanding. It runs on the timer
// goroutine.
func (c *Client) sweep() {
	var expired []*Txn
	var lost []replyKey
	var lostBy []awaitedBy
	c.mu.Lock()
	for id, t := range c.pending {
		if time.Since(t.start) >= coordinateUnits*c.opts.Timeout {
			expired = append(expired, t)
			delete(c.pending, id)
		}
	}
	for k, q := range c.replies {
		if time.Since(q.since) >= queryUnits*c.opts.Timeout {
			delete(c.replies, k)
			lost, lostBy = append(lost, k), append(lostBy, q)
		}
	}
	c.sweeping = len(c.pending)+len(c.replies) > 0 && !c.closed
	again := c.sweeping
	c.mu.Unlock()
	if again {
		live.After(sweepUnits*c.opts.Timeout, c.sweep)
	}
	for _, t := range expired {
		t.resolve(false, fmt.Errorf("commit: submit %s: %w", t.TxID, context.DeadlineExceeded))
	}
	for i, k := range lost {
		lostBy[i].done(nil, queryErr(k.from, context.DeadlineExceeded))
	}
}

// armSweep arms the sweep unless one is armed already; c.mu is held.
func (c *Client) armSweep() bool {
	arm := !c.sweeping
	c.sweeping = true
	return arm
}

func (c *Client) checkPeer(peer int) error {
	if peer < 1 || peer > c.n {
		return fmt.Errorf("%w: peer %d not in 1..%d", ErrPeerID, peer, c.n)
	}
	return nil
}

var errClientClosed = errors.New("client closed")

func queryErr(peer core.ProcessID, err error) error {
	return fmt.Errorf("commit: query %v: %w", peer, err)
}

// QueryFunc sends m, a one-shot read, to the hosted resource on peer and
// returns at once; done gets the peer's reply — whatever message type the
// resource answers with — or an error, exactly once:
//
//   - with the reply, on the client's delivery path, the goroutine that
//     delivers every reply and result this client receives: done must not
//     block, nor wait for another reply;
//   - with context.DeadlineExceeded once the client's sweep finds the query
//     unanswered for 32 timeout units (it looks every 8): an unreachable or
//     non-hosting peer, or an answer the resource could not encode;
//   - with an error at Close, for every query still outstanding;
//   - with an error before QueryFunc returns, for a bad peer ID, a closed
//     client or a failed send.
//
// A query costs no goroutine, runtime timer, channel or context: the reply
// is filed under the query's own ID and the peer asked, and one sweep per
// client bounds every outstanding one.
func (c *Client) QueryFunc(peer int, m Message, done func(Message, error)) {
	if err := c.checkPeer(peer); err != nil {
		done(nil, queryErr(core.ProcessID(peer), err))
		return
	}
	from := core.ProcessID(peer)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		done(nil, queryErr(from, errClientClosed))
		return
	}
	c.seq++
	k := replyKey{txID: c.seqID('q'), from: from}
	c.replies[k] = awaitedBy{done: done, since: time.Now()}
	arm := c.armSweep()
	c.mu.Unlock()
	if arm {
		live.After(sweepUnits*c.opts.Timeout, c.sweep)
	}
	if err := c.tr.Send(live.Envelope{TxID: k.txID, From: c.id, To: from, Path: queryPath, Msg: m}); err != nil {
		if q, ok := c.takeQuery(k); ok {
			q.done(nil, queryErr(from, err))
		}
	}
}

// seqID names a query ('q') or a submission ('c') of this client by c.seq:
// "q5-17". c.mu is held.
func (c *Client) seqID(kind byte) string {
	var buf [48]byte
	b := strconv.AppendUint(append(buf[:0], kind), uint64(c.id), 10)
	b = strconv.AppendUint(append(b, '-'), c.seq, 10)
	return string(b)
}

// takeQuery removes the outstanding query k, reporting whether it was
// there: whoever removes it (its reply, the sweep, Close, a failed send)
// calls its done.
func (c *Client) takeQuery(k replyKey) (awaitedBy, bool) {
	c.mu.Lock()
	q, ok := c.replies[k]
	delete(c.replies, k)
	c.mu.Unlock()
	return q, ok
}

// Query is QueryFunc that waits for the reply, or for ctx to end first: the
// query then still runs to its own end, unobserved. The wait is capped at
// the client's own 32-unit bound, so no query waits on a crashed peer
// longer than the protocol's timeout budget, whatever ctx says.
func (c *Client) Query(ctx context.Context, peer int, m Message) (Message, error) {
	type answer struct {
		m   Message
		err error
	}
	ch := make(chan answer, 1)
	c.QueryFunc(peer, m, func(reply Message, err error) { ch <- answer{reply, err} })
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case a := <-ch:
		return a.m, a.err
	case <-ctx.Done():
		return nil, queryErr(core.ProcessID(peer), ctx.Err())
	}
}

// SubmitAt asks peer coord to coordinate txID's commit and returns a future
// immediately. It ships no footprint, so it suits resources that vote on the
// txID alone; a HostedResource's footprint travels with StageGoAll. There is
// no retransmission: if the coordinator dies mid-run the future resolves
// with an error once the bound expires (the transaction's fate is whatever
// the surviving peers decided — a restarted coordinator must not be handed
// the txID afresh).
func (c *Client) SubmitAt(ctx context.Context, txID string, coord int) *Txn {
	return c.submitMsg(ctx, txID, coord, stageGoMsg{})
}

// submitMsg sends msg, the stage+go message that asks coord to run txID's
// commit — empty for SubmitAt, carrying the footprint for StageGoAll — and
// returns the future its result resolves.
func (c *Client) submitMsg(ctx context.Context, txID string, coord int, msg stageGoMsg) *Txn {
	t := newTxn(ctx, txID)
	if err := c.checkPeer(coord); err != nil {
		t.resolve(false, err)
		return t
	}
	c.mu.Lock()
	var err error
	if _, dup := c.pending[txID]; dup {
		err = fmt.Errorf("commit: txID %q is already in flight", txID)
	}
	if allocatedForm(txID) {
		err = fmt.Errorf("commit: txID %q: %w", txID, errAllocatedTxID)
	}
	if c.closed {
		err = fmt.Errorf("commit: submit %s: %w", txID, errClientClosed)
	}
	if err != nil {
		c.mu.Unlock()
		t.resolve(false, err)
		return t
	}
	if t.TxID == "" {
		c.seq++
		t.TxID = c.seqID('c')
	}
	c.pending[t.TxID] = t
	t.watchContext(c.expire)
	arm := c.armSweep()
	c.mu.Unlock()
	if arm {
		live.After(sweepUnits*c.opts.Timeout, c.sweep)
	}
	env := live.Envelope{TxID: t.TxID, From: c.id, To: core.ProcessID(coord), Path: stageGoPath, Msg: msg}
	if err := c.tr.Send(env); err != nil {
		c.finish(t.TxID, t, false, err)
	}
	return t
}

// errAllocatedTxID rejects a caller's txID of the form the clients allocate
// in ("c<client ID>-<n>"): with it, an allocated ID could name a
// transaction that already decided, and get that one's recorded decision.
var errAllocatedTxID = errors.New("the form c<n>-<n> is reserved for allocated IDs")

// allocatedForm reports whether txID has the form of an allocated ID:
// 'c', digits, '-', digits.
func allocatedForm(txID string) bool {
	digits := func(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }
	rest, c := strings.CutPrefix(txID, "c")
	client, seq, dash := strings.Cut(rest, "-")
	return c && dash && digits(client) && digits(seq)
}

// stageGoBudget bounds the footprint a stage+go message may carry, all
// slices together, and so the footprint of any transaction: one giant
// transaction must not monopolize a flush frame (frames are bounded at 8 MiB
// on the read side) or starve the envelopes batched behind it.
const stageGoBudget = 256 << 10

// ErrStageTooLarge reports a footprint too big to ride the stage+go message,
// the only way a footprint reaches its peers: split the transaction.
var ErrStageTooLarge = errors.New("commit: footprint exceeds the stage+go budget")

// StageGoAll ships txID's whole footprint — fps maps each involved peer to
// its slice — inside the one message that asks coord to run the commit, and
// returns the commit future: one client leg whatever the number of peers.
// The coordinator stages its own slice and forwards every other on the begin
// that announces the transaction to that peer, so no slice can be overtaken
// by the protocol run it belongs to and no ack is needed. Returns
// ErrStageTooLarge (before anything is sent) when the encoded slices exceed
// 256 KiB together.
func (c *Client) StageGoAll(ctx context.Context, txID string, coord int, fps map[int]Message) (*Txn, error) {
	var msg stageGoMsg
	total := 0
	for peer, m := range fps {
		if err := c.checkPeer(peer); err != nil {
			return nil, err
		}
		fp, err := live.MarshalMessage(m)
		if err != nil {
			return nil, err
		}
		if total += len(fp); total > stageGoBudget {
			return nil, fmt.Errorf("%w: over %d bytes", ErrStageTooLarge, stageGoBudget)
		}
		if peer == coord {
			msg.Fp = fp
		} else {
			msg.Others = append(msg.Others, peerSlice{Peer: core.ProcessID(peer), Fp: fp})
		}
	}
	return c.submitMsg(ctx, txID, coord, msg), nil
}

// Submit sends one transaction, choosing a coordinator round-robin
// across the peers, and returns a future immediately. Use SubmitAt to pick
// the coordinator — e.g. one in the client's own region. An empty txID
// allocates one ("c<client ID>-<n>"); a caller's txID of that form is
// rejected. ctx bounds the transaction: if it expires while the transaction
// runs, the future resolves with its error, and the peers still run and
// apply whatever they decide. A nil ctx defaults to context.Background().
func (c *Client) Submit(ctx context.Context, txID string) *Txn {
	c.mu.Lock()
	coord := int(c.rr%uint64(c.n)) + 1
	c.rr++
	c.mu.Unlock()
	return c.SubmitAt(ctx, txID, coord)
}

// CommitMany submits every txID at once (allocating IDs for empty strings)
// and waits for all of them; a caller that wants fewer in flight chunks its
// IDs. results[i] is txIDs[i]'s decision; the first per-transaction error,
// if any, is returned after every future resolved.
func (c *Client) CommitMany(ctx context.Context, txIDs []string) ([]bool, error) {
	txns := make([]*Txn, len(txIDs))
	for i, id := range txIDs {
		txns[i] = c.Submit(ctx, id)
	}
	results := make([]bool, len(txns))
	var firstErr error
	for i, t := range txns {
		ok, err := t.Wait(ctx)
		results[i] = ok
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return results, firstErr
}

// Close shuts the client down; in-flight futures resolve with an error, and
// every outstanding query's done gets one.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending, replies := c.pending, c.replies
	c.pending, c.replies = make(map[string]*Txn), make(map[replyKey]awaitedBy)
	c.mu.Unlock()
	for id, t := range pending {
		t.resolve(false, fmt.Errorf("commit: submit %s: %w", id, errClientClosed))
	}
	for k, q := range replies {
		q.done(nil, queryErr(k.from, errClientClosed))
	}
	c.tr.Close()
}
