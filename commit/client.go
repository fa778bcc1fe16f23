package commit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// Client drives transactions against a deployment of Peers without being a
// protocol participant itself: it stages per-resource footprints on the
// peers that host them (HostedResource), asks one peer to coordinate the
// commit, and resolves a Txn future from the coordinator's result. The kv
// package's remote runtime is the canonical caller.
//
// A client has its own process ID, which must be outside the peers' range
// 1..len(addrs) and unique among the deployment's clients (IDs route reply
// traffic). Every request is accompanied by a tiny hello announcing the
// client's listen address, so peers can answer — and keep answering after
// they restart.
//
// Every blocking call is bounded by a deadline derived from
// Options.Timeout — whatever the caller's context says — so a crashed peer
// yields an error within the protocol's timeout budget, never a hang.
type Client struct {
	id   core.ProcessID
	n    int // peers are 1..n
	opts Options
	tcp  *live.TCP

	mu      sync.Mutex
	pending map[string]*Txn              // awaiting resultMsg, keyed by txID
	acks    map[ackKey]chan stageAckMsg  // awaiting stageAckMsg
	queries map[string]chan core.Message // awaiting queryReply, keyed by query ID
	seq     uint64
	closed  bool
	stop    chan struct{}
}

// ackKey routes a stage ack: one stage may be in flight per (txID, peer).
type ackKey struct {
	txID string
	from core.ProcessID
}

// NewClient connects a client with process ID id (id > len(addrs)) to the
// peers at addrs; addrs[i-1] is Pi's address, exactly as given to NewPeer.
// The client listens on an ephemeral loopback port for replies.
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
	// The transport wants addrs[i-1] for process i: extend the peer list
	// with empty placeholder slots up to the client's own, which holds its
	// ephemeral listen address.
	extended := make([]string, id)
	copy(extended, addrs)
	for i := len(addrs); i < id-1; i++ {
		extended[i] = fmt.Sprintf("client-%d.invalid:0", i+1) // never dialed
	}
	extended[id-1] = "127.0.0.1:0"
	tcp, err := live.NewTCP(core.ProcessID(id), extended)
	if err != nil {
		return nil, err
	}
	if opts.Net != nil {
		tcp.SetShaper(opts.Net.Shaper(time.Now()))
	}
	c := &Client{
		id: core.ProcessID(id), n: len(addrs), opts: opts, tcp: tcp,
		pending: make(map[string]*Txn),
		acks:    make(map[ackKey]chan stageAckMsg),
		queries: make(map[string]chan core.Message),
		stop:    make(chan struct{}),
	}
	tcp.SetHandler(c.deliver)
	return c, nil
}

// ID returns the client's process ID.
func (c *Client) ID() int { return int(c.id) }

// Timeout returns the effective timeout unit U (after defaults, including
// a Net-derived default), which sizes retry and TTL decisions above.
func (c *Client) Timeout() time.Duration { return c.opts.Timeout }

func (c *Client) deliver(e live.Envelope) {
	switch e.Path {
	case stageAckPath:
		m, ok := e.Msg.(stageAckMsg)
		if !ok {
			return
		}
		k := ackKey{txID: e.TxID, from: e.From}
		c.mu.Lock()
		ch := c.acks[k]
		delete(c.acks, k)
		c.mu.Unlock()
		if ch != nil {
			ch <- m // buffered; the waiter may already have given up
		}
	case queryReplyPath:
		c.mu.Lock()
		ch := c.queries[e.TxID]
		delete(c.queries, e.TxID)
		c.mu.Unlock()
		if ch != nil {
			ch <- e.Msg
		}
	case resultPath:
		m, ok := e.Msg.(resultMsg)
		if !ok {
			return
		}
		var err error
		if m.Err != "" {
			err = fmt.Errorf("commit: coordinator P%d: %s", e.From, m.Err)
		} else if a := obs.ActiveAuditor(); a != nil {
			// The coordinator's result is its decision as seen from the
			// client side: a third vantage point for the auditor.
			a.Decide(e.TxID, e.From, m.V, "")
		}
		c.resolve(e.TxID, err == nil && m.V == core.Commit, err)
	}
}

// resolve settles txID's future exactly once: whoever removes it from
// pending (the result handler, the watcher timeout, Close) resolves it.
func (c *Client) resolve(txID string, ok bool, err error) {
	c.mu.Lock()
	t := c.pending[txID]
	delete(c.pending, txID)
	c.mu.Unlock()
	if t != nil {
		t.resolve(ok, err)
	}
}

// hello announces the client's reply route to a peer. Sent with every
// request — it is tens of bytes, and it heals routes after a peer restart.
// It is an envelope of its own, so a shaped link may deliver the request
// first; the peer's transport parks the reply until the route arrives
// (live.TCP.SetRoute).
func (c *Client) hello(peer core.ProcessID) {
	_ = c.tcp.Send(live.Envelope{TxID: "hello", From: c.id, To: peer,
		Path: helloPath, Msg: helloMsg{Addr: c.tcp.Addr()}})
}

// bound caps ctx at the client's own deadline d, so no call waits on a
// crashed peer longer than the protocol's timeout budget — even under a
// caller context with a generous (or absent) deadline.
func (c *Client) bound(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, d)
}

func (c *Client) checkPeer(peer int) error {
	if peer < 1 || peer > c.n {
		return fmt.Errorf("%w: peer %d not in 1..%d", ErrPeerID, peer, c.n)
	}
	return nil
}

// Stage ships txID's footprint for one hosted resource to its peer and
// waits for the ack. A refused stage (the resource said no) and an expired
// context are both errors; after any error the transaction must not be
// started (send Unstage to the peers already staged).
func (c *Client) Stage(ctx context.Context, txID string, peer int, m Message) error {
	if err := c.checkPeer(peer); err != nil {
		return err
	}
	ctx, cancel := c.bound(ctx, 32*c.opts.Timeout)
	defer cancel()
	k := ackKey{txID: txID, from: core.ProcessID(peer)}
	ch := make(chan stageAckMsg, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("commit: client closed")
	}
	if _, dup := c.acks[k]; dup {
		c.mu.Unlock()
		return fmt.Errorf("commit: stage %s at P%d already in flight", txID, peer)
	}
	c.acks[k] = ch
	c.mu.Unlock()

	c.hello(k.from)
	if err := c.tcp.Send(live.Envelope{TxID: txID, From: c.id, To: k.from, Path: stagePath, Msg: m}); err != nil {
		c.mu.Lock()
		delete(c.acks, k)
		c.mu.Unlock()
		return err
	}
	select {
	case ack := <-ch:
		if ack.Err != "" {
			return fmt.Errorf("commit: stage %s at P%d refused: %s", txID, peer, ack.Err)
		}
		return nil
	case <-c.stop:
		return fmt.Errorf("commit: client closed")
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.acks, k)
		c.mu.Unlock()
		return fmt.Errorf("commit: stage %s at P%d: %w", txID, peer, ctx.Err())
	}
}

// Unstage asks a peer to drop txID's staged footprint. Best-effort and
// only meaningful before go was sent for the transaction: once the commit
// protocol may be running, the outcome is the protocol's to decide and
// peers ignore the request.
func (c *Client) Unstage(txID string, peer int) {
	if c.checkPeer(peer) != nil {
		return
	}
	_ = c.tcp.Send(live.Envelope{TxID: txID, From: c.id, To: core.ProcessID(peer),
		Path: unstagePath, Msg: unstageMsg{}})
}

// Query runs a one-shot read against the hosted resource on a peer. The
// reply is whatever message type the resource answers with; an unreachable
// or non-hosting peer surfaces as context expiry.
func (c *Client) Query(ctx context.Context, peer int, m Message) (Message, error) {
	if err := c.checkPeer(peer); err != nil {
		return nil, err
	}
	ctx, cancel := c.bound(ctx, 32*c.opts.Timeout)
	defer cancel()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("commit: client closed")
	}
	c.seq++
	qid := fmt.Sprintf("q%d-%d", c.id, c.seq)
	ch := make(chan core.Message, 1)
	c.queries[qid] = ch
	c.mu.Unlock()

	to := core.ProcessID(peer)
	c.hello(to)
	if err := c.tcp.Send(live.Envelope{TxID: qid, From: c.id, To: to, Path: queryPath, Msg: m}); err != nil {
		c.mu.Lock()
		delete(c.queries, qid)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case reply := <-ch:
		return reply, nil
	case <-c.stop:
		return nil, fmt.Errorf("commit: client closed")
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.queries, qid)
		c.mu.Unlock()
		return nil, fmt.Errorf("commit: query P%d: %w", peer, ctx.Err())
	}
}

// SubmitAt asks peer coord to coordinate txID's commit and returns a future
// immediately. Every involved resource's footprint must already be staged
// AND acked (Stage) — acks are what guarantee no peer sees the protocol's
// begin before its footprint. There is no retransmission: if the
// coordinator dies mid-run the future resolves with an error once the
// bound expires (the transaction's fate is whatever the surviving peers
// decided — a restarted coordinator must not be handed the txID afresh).
func (c *Client) SubmitAt(ctx context.Context, txID string, coord int) *Txn {
	return c.submitMsg(ctx, txID, coord, goPath, goMsg{})
}

// submitMsg is SubmitAt generalized over the message that starts the
// commit: a bare goMsg, or a stageGoMsg carrying the footprint (StageGoAll).
func (c *Client) submitMsg(ctx context.Context, txID string, coord int, path string, msg Message) *Txn {
	t := &Txn{TxID: txID, done: make(chan struct{})}
	t.start = time.Now()
	if err := c.checkPeer(coord); err != nil {
		t.resolve(false, err)
		return t
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		t.resolve(false, fmt.Errorf("commit: client closed"))
		return t
	}
	if txID == "" {
		for {
			c.seq++
			txID = fmt.Sprintf("c%d-%d", c.id, c.seq)
			if _, dup := c.pending[txID]; !dup {
				break
			}
		}
		t.TxID = txID
	} else if _, dup := c.pending[txID]; dup {
		c.mu.Unlock()
		t.resolve(false, fmt.Errorf("commit: txID %q is already in flight", txID))
		return t
	}
	c.pending[txID] = t
	c.mu.Unlock()

	to := core.ProcessID(coord)
	c.hello(to)
	if err := c.tcp.Send(live.Envelope{TxID: txID, From: c.id, To: to, Path: path, Msg: msg}); err != nil {
		c.resolve(txID, false, err)
		return t
	}
	// The watcher guarantees resolution: the coordinator bounds its own run
	// at coordinateUnits and always replies, so the slack beyond that only
	// covers the reply's travel; past it the coordinator is presumed dead.
	bctx, cancel := c.bound(ctx, (coordinateUnits+16)*c.opts.Timeout)
	go func() {
		defer cancel()
		select {
		case <-t.done:
		case <-c.stop:
			c.resolve(txID, false, fmt.Errorf("commit: client closed"))
		case <-bctx.Done():
			c.resolve(txID, false, fmt.Errorf("commit: submit %s: %w", txID, bctx.Err()))
		}
	}()
	return t
}

// stageGoBudget bounds the footprint a stage+go message may carry, all
// slices together. A larger footprint falls back to the two-phase stage path
// so one giant transaction cannot monopolize a flush frame (frames are
// bounded at 8 MiB on the read side) or starve the envelopes batched behind
// it.
const stageGoBudget = 256 << 10

// ErrStageTooLarge reports a footprint too big to ride the stage+go message;
// the caller should stage it two-phase (Stage + SubmitAt) instead.
var ErrStageTooLarge = errors.New("commit: footprint exceeds the stage+go budget")

// StageGo ships txID's footprint for the coordinator's own resource INSIDE
// the go message and returns the commit future: StageGoAll for a transaction
// whose only hosted slice is the coordinator's. m may be nil when every
// footprint was staged and acked beforehand (Stage), which makes this a bare
// go.
func (c *Client) StageGo(ctx context.Context, txID string, coord int, m Message) (*Txn, error) {
	var fps map[int]Message
	if m != nil {
		fps = map[int]Message{coord: m}
	}
	return c.StageGoAll(ctx, txID, coord, fps)
}

// StageGoAll ships txID's whole footprint — fps maps each involved peer to
// its slice — inside the one message that asks coord to run the commit, and
// returns the commit future: one client leg whatever the number of peers.
// The coordinator stages its own slice and forwards every other on the begin
// that announces the transaction to that peer, so no slice can be overtaken
// by the protocol run it belongs to and no ack is needed. Returns
// ErrStageTooLarge (before anything is sent) when the encoded slices exceed
// the budget together — stage two-phase then.
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
	return c.submitMsg(ctx, txID, coord, stageGoPath, msg), nil
}

// Submit enqueues one transaction, choosing a coordinator round-robin
// across the peers, and returns a future immediately; it (with CommitMany
// and Close) is what lets a Client stand in for a Cluster behind the kv
// store's Committer interface. Use SubmitAt to pick the coordinator — e.g.
// one in the client's own region.
func (c *Client) Submit(ctx context.Context, txID string) *Txn {
	c.mu.Lock()
	c.seq++
	coord := int(c.seq%uint64(c.n)) + 1
	c.mu.Unlock()
	return c.SubmitAt(ctx, txID, coord)
}

// CommitMany submits every txID (allocating IDs for empty strings) and
// waits for all of them, mirroring Cluster.CommitMany.
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

// Close shuts the client down; in-flight futures resolve with an error.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	pending := c.pending
	c.pending = make(map[string]*Txn)
	c.mu.Unlock()
	for _, t := range pending {
		t.resolve(false, fmt.Errorf("commit: client closed"))
	}
	c.tcp.Close()
}
