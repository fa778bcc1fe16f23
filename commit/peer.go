package commit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
)

// NewPeer input validation errors, matchable with errors.Is.
var (
	// ErrNilResource reports a nil Resource.
	ErrNilResource = errors.New("commit: resource must not be nil")
	// ErrPeerID reports a peer id outside 1..len(addrs).
	ErrPeerID = errors.New("commit: peer id out of range")
	// ErrBadAddrs reports an empty or duplicated peer address.
	ErrBadAddrs = errors.New("commit: bad peer address list")
)

// Peer is one participant, and the only owner of a transaction's lifecycle
// at its process: vote, protocol instance, apply, and retirement with the
// apply: from its decision on, a transaction is one entry of the outcome
// cache, which answers whoever still writes about it. NewPeer puts
// it in its own address space on TCP, the realistic deployment shape; a
// Cluster is n of them and a Client on an in-memory mesh. A Client asks a
// peer to coordinate a transaction, or any peer initiates one with Commit;
// the others vote and apply via their Resource.
//
// The ordering rule. A peer with a plain Resource joins a transaction on
// first contact, be it a begin or a protocol envelope: its vote needs
// nothing but the txID. A peer hosting a HostedResource votes on a footprint,
// and that footprint reaches it on the transaction's announcement (a begin
// carrying its slice), which protocol envelopes routinely overtake — every
// envelope is delayed on its own, only what shares an envelope shares an
// arrival. So a hosted peer never calls Prepare on the strength of a protocol
// envelope alone: it files the transaction's record, whose instance holds
// such envelopes until it starts, and waits for the announcement — a begin,
// a stage+go, or a local Commit or Wait — and if none arrives within one
// timeout unit it joins voting abort without calling Prepare, which would
// vote on a footprint it does not have.
// The footprint is staged only by the run that claimed the transaction,
// right before its Prepare, so a hosted peer never holds a footprint it has
// not voted on.
type Peer struct {
	id     core.ProcessID
	n      int
	opts   Options
	res    Resource
	hosted HostedResource // res, if it is one; else nil
	tr     live.Transport
	mk     func(core.ProcessID) core.Module // opts.factory(), built once

	mu      sync.Mutex
	txns    map[string]*txn        // live transactions, running or unannounced
	decided boundedMap[core.Value] // outcomes of applied, retired transactions
	closed  bool

	// apply is the apply worker: every decision of this peer, in the order
	// they landed, run one at a time by settle.
	apply *live.Inbox[decision]
}

// txn is what a peer holds for one live transaction, from the first sign of
// it until settle applies the decision and moves the outcome into
// Peer.decided. Peer.mu guards the fields until then; after that they no
// longer change, and only a local Wait still holds the record.
type txn struct {
	// inst is the transaction's protocol instance, built in place with the
	// record (see file): every protocol envelope goes to it, and it holds
	// them until the vote starts it. The record is its Decided hook, which
	// queues the decision on p's apply worker.
	inst  live.Instance
	p     *Peer
	phase txnPhase
	// done is made by a local Commit or Wait, and closed once
	// Resource.Commit/Abort returned; nil while nobody waits.
	done chan struct{}
	// client asked this peer to coordinate the commit and awaits its result
	// (0: nobody does), which settle sends.
	client core.ProcessID
}

// Decided implements live.Decider: it queues the instance's decision for the
// apply worker.
func (t *txn) Decided(v core.Value) { t.p.apply.Push(decision{t, v}) }

// decision is one entry of the apply worker's queue: the outcome v of the
// transaction whose record is t, to apply and report.
type decision struct {
	t *txn
	v core.Value
}

// txnPhase is where a transaction's record stands at this peer.
type txnPhase uint8

const (
	// running: join claimed the record for one caller, who is in, or past,
	// the run: the slice's Stage, if it has one, then Resource.Prepare.
	running txnPhase = iota
	// unannounced: a hosted peer holds protocol envelopes of a transaction
	// nobody announced to it yet (see the ordering rule on Peer).
	unannounced
)

// NewPeer starts participant id (1-based); addrs[i-1] is Pi's address, and
// this peer listens on addrs[id-1]. If resource implements HostedResource,
// the peer also serves remote clients (see Client): client-initiated commits
// that carry their footprint, and one-shot queries.
func NewPeer(id int, addrs []string, resource Resource, opts Options) (*Peer, error) {
	if resource == nil {
		return nil, fmt.Errorf("%w (peer %d)", ErrNilResource, id)
	}
	if err := validateAddrs(addrs); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults(len(addrs))
	if err != nil {
		return nil, err
	}
	if id < 1 || id > len(addrs) {
		return nil, fmt.Errorf("%w: %d not in 1..%d", ErrPeerID, id, len(addrs))
	}
	tcp, err := live.NewTCP(core.ProcessID(id), addrs)
	if err != nil {
		return nil, err
	}
	if opts.Net != nil {
		tcp.SetShaper(opts.Net.Shaper(time.Now()))
	}
	return newPeer(core.ProcessID(id), len(addrs), tcp, resource, opts), nil
}

// newPeer runs participant id of n over tr; opts already carry defaults.
func newPeer(id core.ProcessID, n int, tr live.Transport, resource Resource, opts Options) *Peer {
	p := &Peer{
		id: id, n: n, opts: opts, res: resource, tr: tr, mk: opts.factory(),
		txns: make(map[string]*txn),
	}
	p.hosted, _ = resource.(HostedResource)
	p.apply = live.NewInbox(p.settle)
	tr.SetHandler(p.deliver)
	return p
}

// validateAddrs rejects empty and duplicated peer addresses up front — both
// would otherwise surface as baffling runtime behavior (dials to "", two
// peers stealing each other's traffic).
func validateAddrs(addrs []string) error {
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		if a == "" {
			return fmt.Errorf("%w: addrs[%d] is empty", ErrBadAddrs, i)
		}
		if j, ok := seen[a]; ok {
			return fmt.Errorf("%w: addrs[%d] and addrs[%d] are both %q", ErrBadAddrs, j, i, a)
		}
		seen[a] = i
	}
	return nil
}

// Addr returns the peer's bound listen address, which only the TCP transport
// has: on the in-memory mesh it is "".
func (p *Peer) Addr() string {
	if tcp, ok := p.tr.(*live.TCP); ok {
		return tcp.Addr()
	}
	return ""
}

func (p *Peer) deliver(e live.Envelope) {
	switch e.Path {
	case outcomePath:
		if m, ok := e.Msg.(decideMsg); ok {
			p.adopt(e.TxID, m.V)
		}
	case stageGoPath:
		p.coordinate(e)
	case queryPath:
		p.handleQuery(e)
	case beginPath:
		m, _ := e.Msg.(beginMsg)
		p.mu.Lock()
		t, first := p.join(e.TxID)
		p.mu.Unlock()
		if !first {
			// The slice, if any, is dropped unstaged: the transaction
			// already runs, or ended, without it.
			return
		}
		if fp, err := decodeSlice(m.Fp); err != nil {
			// A slice that does not decode is a vote to abort. The
			// coordinator forwards a slice checking only its wire ID, so
			// a client's truncated body first fails here.
			t.inst.Start(core.Abort)
		} else {
			p.run(e.TxID, t, fp)
		}
	default:
		if e.Path != "" && e.Path[0] == 0 {
			// A reserved path this peer does not serve: a reply meant for a
			// client, or a request it no longer knows. It is not protocol
			// traffic, so it neither joins nor announces a transaction.
			return
		}
		// A protocol message. For a plain Resource it also implies that the
		// transaction exists: join it. A hosted peer waits for the
		// announcement instead (the ordering rule on Peer). A running
		// transaction's envelope costs one probe of the records; only one
		// without a record asks the outcome cache (see join).
		p.mu.Lock()
		t := p.txns[e.TxID]
		var outcome core.Value
		first, arm, retired := false, false, false
		if t == nil && !p.closed {
			outcome, retired = p.decided.get(e.TxID)
		}
		switch {
		case p.closed || retired:
			t = nil
		case t != nil:
			// Running, or unannounced at a hosted peer, which an envelope
			// does not announce: the instance takes it either way.
		case p.hosted != nil:
			t, arm = p.file(e.TxID, unannounced), true
		default:
			t, first = p.file(e.TxID, running), true
		}
		p.mu.Unlock()
		if t != nil {
			t.inst.Deliver(e) // held until the instance starts
		}
		switch {
		case first:
			p.run(e.TxID, t, nil)
		case arm:
			p.awaitAnnouncement(e.TxID, t)
		case retired:
			// A late envelope is dropped, not buffered forever. But its
			// sender still runs a protocol we no longer take part in, and
			// cannot terminate if enough of us retired: tell it the outcome.
			_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: outcomePath, Msg: decideMsg{V: outcome}})
		}
	}
}

// awaitAnnouncement bounds the wait of an unannounced transaction: if its
// announcement has not arrived one timeout unit from now, the peer joins
// voting abort. That happens on the timer goroutine, and calls no Resource
// method.
func (p *Peer) awaitAnnouncement(txID string, t *txn) {
	live.After(p.opts.Timeout, func() {
		p.mu.Lock()
		first := false
		if p.txns[txID] == t && t.phase == unannounced {
			_, first = p.join(txID)
		}
		p.mu.Unlock()
		if first {
			t.inst.Start(core.Abort)
		}
	})
}

// coordinate is the whole client side of a commit in one leg: a client's
// stage+go asks this peer to run the transaction's commit, carrying its
// footprint, if it has one. It checks every slice, then announces the
// transaction to every other peer, each other slice riding the begin to its
// peer and this peer's own staged by the run, right before its Prepare; no
// stage needs an ack or a TTL, because nothing orders it against the run but
// the message that starts the run. A malformed message (see checkSlices)
// answers as a resultMsg error before anything is staged anywhere — the
// transaction never begins; another peer's slice whose body is cut short
// passes that check and aborts the transaction at its peer. Otherwise the
// client is filed for the result, which the apply worker sends once this
// peer applied the decision (settle). A commit that
// cannot terminate (no correct majority) gets no answer here: the client's
// own deadline bounds it. It runs on the delivery path up to the instance's
// start, as a begin does; nothing waits per transaction. A replayed stage+go
// finds the record claimed, or the outcome cached, so its slice is dropped
// unstaged and only the result goes back; a peer the first begin reached
// drops the repeated begin's slice the same way.
func (p *Peer) coordinate(e live.Envelope) {
	m, ok := e.Msg.(stageGoMsg)
	if !ok {
		return
	}
	fp, slices, err := p.checkSlices(m)
	if err == nil && e.TxID == "" {
		err = errors.New("commit: txID required")
	}
	if err != nil {
		p.reply(e.TxID, e.From, resultMsg{V: core.Abort, Err: err.Error()})
		return
	}
	p.sendBegins(e.TxID, slices)
	p.mu.Lock()
	t, first := p.join(e.TxID)
	res := resultMsg{V: core.Abort}
	if t != nil {
		t.client = e.From
	} else if v, retired := p.decided.get(e.TxID); retired {
		res.V = v
	} else {
		res.Err = "commit: peer closed"
	}
	p.mu.Unlock()
	if first {
		p.run(e.TxID, t, fp)
	}
	if t == nil {
		p.reply(e.TxID, e.From, res)
	}
}

// reply sends a client the result of the commit it asked this peer to run.
func (p *Peer) reply(txID string, to core.ProcessID, res resultMsg) {
	_ = p.tr.Send(live.Envelope{TxID: txID, From: p.id, To: to, Path: resultPath, Msg: res})
}

// checkSlices validates a client's stage+go message — which crosses a trust
// boundary — and returns this peer's own slice, decoded (nil when there is
// none), for its run to stage, and the other peers' by peer, for coordinate
// to forward: nil when there is none. All slices together must fit the
// budget, and this peer's own must decode. Another peer's is checked only
// as far as routing it needs: a peer of P1..Pn other than this one, named
// once, with a non-empty slice whose wire ID is registered. Its body is
// that peer's to decode, and a body that does not decode there is a vote to
// abort (deliver's begin case).
func (p *Peer) checkSlices(m stageGoMsg) (Message, [][]byte, error) {
	total := len(m.Fp)
	if total > stageGoBudget {
		return nil, nil, ErrStageTooLarge
	}
	fp, err := decodeSlice(m.Fp)
	if err != nil {
		return nil, nil, fmt.Errorf("malformed footprint: %v", err)
	}
	if len(m.Others) == 0 {
		return fp, nil, nil
	}
	slices := make([][]byte, p.n+1)
	for _, o := range m.Others {
		if o.Peer < 1 || int(o.Peer) > p.n || o.Peer == p.id || slices[o.Peer] != nil {
			return nil, nil, fmt.Errorf("footprint for %v: not another peer of P1..P%d, or its second", o.Peer, p.n)
		}
		if total += len(o.Fp); total > stageGoBudget {
			return nil, nil, ErrStageTooLarge
		}
		if _, err := live.MessageID(o.Fp); err != nil {
			return nil, nil, fmt.Errorf("malformed footprint for %v: %v", o.Peer, err)
		}
		slices[o.Peer] = o.Fp
	}
	return fp, slices, nil
}

// decodeSlice decodes one peer's slice of a footprint: nil for an empty one.
func decodeSlice(fp []byte) (Message, error) {
	if len(fp) == 0 {
		return nil, nil
	}
	return live.UnmarshalMessage(fp)
}

// handleQuery answers a one-shot read against the hosted resource. Errors the
// resource cannot encode in its reply message degrade to silence (the
// client's query bound expires), the same as a crashed peer.
func (p *Peer) handleQuery(e live.Envelope) {
	if p.hosted == nil {
		return
	}
	if reply, err := p.hosted.Query(e.Msg); err == nil {
		p.answer(e, reply)
	}
}

// answer sends the answer to query e back to its sender or, when it is a Hop,
// passes it on: to another peer as a query, to anyone else as the reply, both
// under the query's ID. A Deferred answer is sent the same way once it is
// ready.
func (p *Peer) answer(e live.Envelope, reply Message) {
	switch r := reply.(type) {
	case nil:
		return
	case Deferred:
		r.Await(func(m Message) { p.answer(e, m) })
		return
	}
	to, path := e.From, queryReplyPath
	if h, ok := reply.(Hop); ok {
		if to = h.Next(); to == 0 || to == p.id {
			return
		}
		if int(to) <= p.n {
			path = queryPath
		}
	}
	_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: to, Path: path, Msg: reply})
}

// join returns txID's running record, creating it (or taking over an
// unannounced one, whose instance holds the envelopes that came first) when
// the transaction is announced. first tells the caller it made that claim
// and must call run once it released p.mu, which it holds. A nil record
// means the peer is closed, or txID retired and the outcome cache answers.
func (p *Peer) join(txID string) (t *txn, first bool) {
	if p.closed {
		return nil, false
	}
	t = p.txns[txID]
	if t == nil {
		// A record and a cached outcome never coexist: settle swaps one for
		// the other under p.mu.
		if _, ok := p.decided.get(txID); ok {
			return nil, false
		}
		return p.file(txID, running), true
	}
	if t.phase == running {
		return t, false
	}
	t.phase = running
	return t, true
}

// file makes txID's record in phase ph, with the protocol instance every
// envelope of the transaction goes to from now on: the instance holds them
// until the vote starts it, and the record, its Decided hook, queues the
// decision for the apply worker. One allocation holds both. p.mu is held.
func (p *Peer) file(txID string, ph txnPhase) *txn {
	t := &txn{p: p, phase: ph}
	t.inst.Init(live.Config{
		ID: p.id, N: p.n, F: p.opts.F, U: p.opts.ticks(), TxID: txID,
		Label:   string(p.opts.Protocol),
		New:     p.mk,
		Send:    p.tr.Send,
		Decided: t,
	})
	p.txns[txID] = t
	return t
}

// run takes a transaction its caller just claimed through the local
// lifecycle: stage fp, the decoded slice of the footprint its announcement
// carried (nil if it carried none), vote via the Resource, and start the
// protocol. It is the one place a footprint reaches the hosted resource, so
// Stage and Prepare run back to back on one goroutine and the decision
// resolves the stage. A slice that the resource refuses is a vote to abort
// without Prepare — the client sees an abort, never a hang; so is a slice
// for a peer that hosts no HostedResource, and (in the caller) one that does
// not decode.
func (p *Peer) run(txID string, t *txn, fp Message) {
	// Stage and Prepare outside the lock: user code, and may take time.
	vote := core.Abort
	if (fp == nil || p.hosted != nil && p.hosted.Stage(txID, fp) == nil) && p.res.Prepare(txID) {
		vote = core.Commit
	}
	t.inst.Start(vote) // a no-op if the peer closed meanwhile: Close closed it
}

// settle is the one place a decision takes effect at this process, run by
// the apply worker in the order the decisions landed: the instance's Decided
// hook queues it, because the deciding handler may be a transport's read loop
// or the timer goroutine, which the Resource's callback must not stall.
// Apply to the Resource, then, in one critical section, release the waiters
// and retire the record: its outcome moves to the cache (bounded by
// retiredHistory), which answers replays and late envelopes from here on.
// Last, answer the client this peer coordinates for.
func (p *Peer) settle(d decision) {
	t, txID := d.t, d.t.inst.TxID()
	if d.v == core.Commit {
		p.res.Commit(txID)
	} else {
		p.res.Abort(txID)
	}
	p.mu.Lock()
	if t.done != nil {
		close(t.done)
	}
	client := t.client
	delete(p.txns, txID)
	p.decided.put(txID, d.v)
	p.mu.Unlock()
	t.inst.Close()
	if client != 0 {
		p.reply(txID, client, resultMsg{V: d.v})
	}
}

// adopt hands a retired peer's outcome for txID (see deliver) to our
// instance if it is still undecided: Agreement makes it the decision.
func (p *Peer) adopt(txID string, v core.Value) {
	p.mu.Lock()
	if t := p.txns[txID]; t != nil {
		t.inst.Adopt(v)
	}
	p.mu.Unlock()
}

// Commit initiates transaction txID from this peer and blocks until the
// LOCAL decision is applied (other peers decide on their own and fire their
// callbacks). It returns true iff the transaction committed.
func (p *Peer) Commit(ctx context.Context, txID string) (bool, error) {
	if txID == "" {
		return false, fmt.Errorf("commit: txID required")
	}
	p.sendBegins(txID, nil)
	return p.Wait(ctx, txID)
}

// sendBegins announces txID to every other peer, so that every peer starts
// (roughly) together; slices[q], when set, rides the begin to Pq.
func (p *Peer) sendBegins(txID string, slices [][]byte) {
	for q := core.ProcessID(1); int(q) <= p.n; q++ {
		if q == p.id {
			continue
		}
		var begin core.Message = beginMsg{} // as ever: no payload, no allocation
		if slices != nil {
			begin = beginMsg{Fp: slices[q]}
		}
		_ = p.tr.Send(live.Envelope{TxID: txID, From: p.id, To: q, Path: beginPath, Msg: begin})
	}
}

// Wait blocks until this peer's instance for txID (started by any peer, or
// by this call: the paper's footnote-13 spontaneous start, which costs no
// message) has decided and the local Resource applied the decision. A
// transaction already applied answers from the outcome cache.
func (p *Peer) Wait(ctx context.Context, txID string) (bool, error) {
	p.mu.Lock()
	t, first := p.join(txID)
	var v core.Value
	retired := false
	if t == nil {
		v, retired = p.decided.get(txID)
	} else if t.done == nil {
		t.done = make(chan struct{})
	}
	p.mu.Unlock()
	if first {
		p.run(txID, t, nil)
	}
	if t == nil && retired {
		return v == core.Commit, nil
	} else if t == nil {
		return false, fmt.Errorf("commit: peer closed")
	}
	select {
	case <-t.done:
		return t.inst.Outcome() == core.Commit, nil
	case <-ctx.Done():
		return false, fmt.Errorf("commit instance %s at %v: %w", txID, p.id, ctx.Err())
	}
}

// Close shuts the peer down.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, t := range p.txns {
		t.inst.Close() // stops its timers; takes no lock of ours
	}
	p.txns = make(map[string]*txn)
	p.mu.Unlock()
	p.apply.Close() // a crash: applies still waiting are dropped
	p.tr.Close()
}
