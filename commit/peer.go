package commit

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// retireGraceUnits is how many timeout units a peer keeps a decided
// instance alive before retiring it. A peer only knows its own decision,
// and messages already in flight to it — a vote it no longer needs, a plea
// for help — still deserve the protocol's own answer; one unit is the bound
// the deployment assumes on a message delay. Whoever writes later is running
// late, and gets the outcome itself in place of protocol help (see deliver).
const retireGraceUnits = 1

// stageTTLUnits bounds how long a staged-but-never-begun transaction may
// hold its footprint (intents, staged writes) on a hosted resource: if the
// protocol run has not arrived within stageTTLUnits timeout units — the
// client crashed between stage and go, or the go was partitioned away —
// the peer aborts the stage and poisons the txID so a pathologically late
// begin votes abort instead of vacuously committing a transaction whose
// writes were dropped. Generous relative to the client's stage→go hop
// (one WAN round trip).
const stageTTLUnits = 64

// coordinateUnits bounds a client-initiated commit run on the coordinating
// peer, so a resultMsg always goes back even if the protocol cannot
// terminate (e.g. no correct majority): far above any decision time, which
// is a few timeout units.
const coordinateUnits = 128

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
// at its process: vote, protocol instance, apply, retirement. NewPeer puts
// it in its own address space on TCP, the realistic deployment shape; a
// Cluster is n of them on an in-memory mesh. Any peer may initiate a
// transaction with Commit; the others vote and apply via their Resource.
type Peer struct {
	id   core.ProcessID
	n    int
	opts Options
	res  Resource
	tr   live.Transport
	mk   func(core.ProcessID) core.Module // opts.factory(), built once

	mu      sync.Mutex
	txns    map[string]*txn        // live transactions, staged or running
	settled []settled              // applied, awaiting retirement; oldest first
	decided boundedMap[core.Value] // outcomes of retired transactions
	// Decision cross-checking (see decideMsg): peer decisions that arrived
	// before our own landed. Read when ours does, then left to age out.
	reports boundedMap[[]peerReport]
	closed  bool

	debug *http.Server // optional observability endpoint (ServeDebug)
}

// txn is what a peer holds for one live transaction, from the first sign of
// it until retire moves its outcome into Peer.decided. Peer.mu guards the
// fields until done is closed; after that they no longer change.
type txn struct {
	// staged: a client's footprint is on the hosted resource and the
	// protocol run has not arrived, so the stage TTL may still reclaim it.
	// Otherwise the record is running: join claimed it for one caller, who
	// is in, or past, Resource.Prepare.
	staged  bool
	vote    core.Value
	inst    *live.Instance  // nil while Resource.Prepare runs
	pending []live.Envelope // protocol envelopes that arrived before inst
	done    chan struct{}   // closed once Resource.Commit/Abort returned
}

// settled is a transaction whose decision was applied at the given time.
type settled struct {
	txID string
	at   time.Time
}

// peerReport is one remote decision awaiting our local one.
type peerReport struct {
	from core.ProcessID
	v    core.Value
}

// NewPeer starts participant id (1-based); addrs[i-1] is Pi's address, and
// this peer listens on addrs[id-1]. If resource implements HostedResource,
// the peer also serves remote clients (see Client): footprint staging,
// client-initiated commits, and one-shot queries.
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

// Addr returns the peer's bound listen address. Addresses, like the route
// table a client's hello updates, are a capability of the TCP transport
// only: on the in-memory mesh it is "".
func (p *Peer) Addr() string {
	if tcp, ok := p.tr.(*live.TCP); ok {
		return tcp.Addr()
	}
	return ""
}

func (p *Peer) deliver(e live.Envelope) {
	switch e.Path {
	case decidePath, outcomePath:
		// Decision announcements are cross-checked even for transactions we
		// already retired: the cached outcome still answers.
		if m, ok := e.Msg.(decideMsg); ok {
			p.observeDecision(e.From, e.TxID, m.V, e.Path == outcomePath)
		}
	case helloPath:
		// A client announcing its reply route (possibly refreshing it after
		// a restart on a new port).
		if tcp, ok := p.tr.(*live.TCP); ok {
			if m, ok := e.Msg.(helloMsg); ok {
				tcp.SetRoute(e.From, m.Addr)
			}
		}
	case stagePath:
		p.handleStage(e)
	case goPath:
		// Coordinating a commit blocks until the decision; never stall the
		// transport's read loop on it.
		go p.handleGo(e)
	case stageGoPath:
		go p.handleStageGo(e)
	case queryPath:
		p.handleQuery(e)
	case unstagePath:
		// A sibling stage was refused, so the transaction will never begin.
		p.dropStage(e.TxID)
	default:
		// A begin or a protocol message — which for an unannounced
		// transaction also implies the transaction exists: join it, our
		// vote coming from our Resource.
		p.mu.Lock()
		t, first := p.join(e.TxID)
		var inst *live.Instance
		var outcome core.Value
		retired := false
		if t == nil {
			outcome, retired = p.decided.get(e.TxID)
		} else if e.Path != beginPath {
			if inst = t.inst; inst == nil {
				t.pending = append(t.pending, e)
			}
		}
		p.mu.Unlock()
		if first {
			p.run(e.TxID, t)
		}
		if inst != nil {
			inst.Deliver(e)
		}
		if retired && e.Path != beginPath {
			// A straggler is dropped, not buffered forever. But its sender
			// still runs a protocol we can no longer take part in, and
			// cannot terminate if enough of us retired: tell it the outcome.
			_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: outcomePath, Msg: decideMsg{V: outcome}})
		}
	}
}

// handleStage hands a remote client's footprint to the hosted resource and
// acks the outcome (the client collects every involved peer's ack before it
// sends go, so a begin can never overtake its footprint).
func (p *Peer) handleStage(e live.Envelope) {
	_, refusal := p.stage(e.TxID, e.Msg)
	if refusal == "" {
		// The stage TTL: a footprint whose protocol run never arrives is
		// aborted, bounding how long a dead client's intents can block
		// other transactions. The timer goroutine only looks; the
		// Resource's callback, in the rare case there is something to
		// drop, gets a goroutine of its own.
		txID := e.TxID
		live.After(stageTTLUnits*p.opts.Timeout, func() {
			if p.unstage(txID) {
				go p.res.Abort(txID)
			}
		})
	}
	_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: stageAckPath, Msg: stageAckMsg{Err: refusal}})
}

// stage puts a client's footprint for txID on the hosted resource. refusal
// says why not ("" on success); begun, that the reason is a protocol run
// that already began, or finished, here.
func (p *Peer) stage(txID string, fp Message) (begun bool, refusal string) {
	hosted, ok := p.res.(HostedResource)
	if !ok {
		return false, "peer does not host a stageable resource"
	}
	p.mu.Lock()
	_, done := p.decided.get(txID)
	t := p.txns[txID]
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return false, "peer closed"
	}
	if done || (t != nil && !t.staged) {
		return true, "transaction already running or decided"
	}
	if err := hosted.Stage(txID, fp); err != nil {
		return false, err.Error()
	}
	p.mu.Lock()
	if p.txns[txID] == nil { // else the protocol run claimed it meanwhile
		p.txns[txID] = &txn{staged: true}
	}
	p.mu.Unlock()
	return false, ""
}

// handleGo coordinates the commit of a client's transaction and reports the
// local decision (or the infrastructure failure) back, after this peer
// applied it. The run is bounded so a result always goes out — the client
// must observe abort-or-commit-or-error, never a hang.
func (p *Peer) handleGo(e live.Envelope) {
	ctx, cancel := context.WithTimeout(context.Background(), coordinateUnits*p.opts.Timeout)
	defer cancel()
	ok, err := p.Commit(ctx, e.TxID)
	res := resultMsg{V: core.Abort}
	if ok {
		res.V = core.Commit
	}
	if err != nil {
		res.Err = err.Error()
	}
	_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: resultPath, Msg: res})
}

// handleStageGo is handleStage and handleGo collapsed into one leg: stage
// the piggybacked footprint (same-connection delivery guarantees it cannot
// be overtaken by the begin it precedes), then coordinate the commit and
// report the decision. A stage refusal answers as a resultMsg error — the
// transaction never begins, and nothing was staged elsewhere that this
// client still owns (two-phase stages, if any, were acked first). No stage
// TTL is armed: the protocol run arrives in the same breath, so there is
// no orphaned-stage window for a client crash to leave behind.
func (p *Peer) handleStageGo(e live.Envelope) {
	m, ok := e.Msg.(stageGoMsg)
	if !ok {
		return
	}
	if len(m.Fp) > 0 {
		fp, err := live.UnmarshalMessage(m.Fp)
		refusal := ""
		if err != nil {
			refusal = "malformed piggybacked footprint: " + err.Error()
		} else if begun, why := p.stage(e.TxID, fp); !begun {
			// begun is a replayed stage+go: the footprint already reached
			// the protocol, so only answer, from the run or the cache.
			refusal = why
		}
		if refusal != "" {
			_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From,
				Path: resultPath, Msg: resultMsg{V: core.Abort, Err: refusal}})
			return
		}
	}
	p.handleGo(e)
}

// handleQuery answers a one-shot read against the hosted resource. Errors
// the resource cannot encode in its reply message degrade to silence (the
// client's context expires), the same as a crashed peer.
func (p *Peer) handleQuery(e live.Envelope) {
	hosted, ok := p.res.(HostedResource)
	if !ok {
		return
	}
	reply, err := hosted.Query(e.Msg)
	if err != nil || reply == nil {
		return
	}
	_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: queryReplyPath, Msg: reply})
}

// dropStage aborts a staged, never-begun transaction and poisons its txID
// with a cached abort outcome — a pathologically late begin must be dropped
// (and answered abort from the cache), not allowed to vacuously commit a
// transaction whose staged writes were just thrown away. No-op once the
// protocol run began or decided: the protocol owns the outcome then.
func (p *Peer) dropStage(txID string) {
	if p.unstage(txID) {
		p.res.Abort(txID)
	}
}

// unstage is dropStage up to the Resource's callback: it reports whether
// txID was staged, and so is the caller's to abort.
func (p *Peer) unstage(txID string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.txns[txID]; t == nil || !t.staged {
		return false
	}
	delete(p.txns, txID)
	p.decided.put(txID, core.Abort)
	return true
}

// retire forgets the instances of the transactions settled at least the
// grace ago, remembering their outcomes (bounded by retiredHistory) so late
// messages are dropped and Wait/Commit replays still answer from the cache.
// One deadline serves the whole queue, and a busy peer retires in batches:
// a deadline per transaction costs more than the rest of settling one. It
// runs on the timer goroutine, and calls nothing that may block.
func (p *Peer) retire() {
	grace := retireGraceUnits * p.opts.Timeout
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.settled) > 0 && time.Since(p.settled[0].at) >= grace {
		txID := p.settled[0].txID
		p.settled = p.settled[1:]
		if t := p.txns[txID]; t != nil { // nil once Close dropped the records
			t.inst.Close()
			delete(p.txns, txID)
			p.decided.put(txID, t.inst.Outcome())
		}
	}
	if len(p.settled) > 0 && !p.closed {
		live.After(max(grace-time.Since(p.settled[0].at), grace/4), p.retire)
	}
}

// join returns txID's running record, creating it (or taking over a staged
// one: the protocol owns the footprint's fate now) on the first sign of the
// protocol run. first tells the caller it made that claim and must call run
// once it released p.mu, which it holds. A nil record means the peer is
// closed, or txID retired and the outcome cache answers.
func (p *Peer) join(txID string) (t *txn, first bool) {
	if p.closed {
		return nil, false
	}
	if _, ok := p.decided.get(txID); ok {
		return nil, false
	}
	if t := p.txns[txID]; t != nil && !t.staged {
		return t, false
	}
	t = &txn{done: make(chan struct{})}
	p.txns[txID] = t
	return t, true
}

// run takes a transaction its caller just claimed through the local
// lifecycle: vote via the Resource, start the protocol instance with settle
// as its decision hook, and hand it what arrived meanwhile.
func (p *Peer) run(txID string, t *txn) {
	// Prepare outside the lock: it is user code and may take time.
	vote := core.Abort
	if p.res.Prepare(txID) {
		vote = core.Commit
	}
	inst := live.NewInstance(live.Config{
		ID: p.id, N: p.n, F: p.opts.F, U: p.opts.ticks(), TxID: txID,
		Label:   string(p.opts.Protocol),
		New:     p.mk,
		Send:    p.tr.Send,
		Decided: func(v core.Value) { go p.settle(txID, t, v) },
	})
	p.mu.Lock()
	t.vote, t.inst = vote, inst
	pend := t.pending
	t.pending = nil
	p.mu.Unlock()

	inst.Start(vote)
	for _, e := range pend {
		inst.Deliver(e)
	}
}

// settle is the one place a decision takes effect at this process. The
// instance's Decided hook starts it when the decision lands — on a goroutine
// of its own, because the deciding handler may be a transport's read loop,
// which announce's sends and the Resource's callback must not stall; none is
// parked per transaction meanwhile. Cross-check and announce, apply to the
// Resource, release the waiters, and queue for retirement so that
// per-transaction state stays bounded.
func (p *Peer) settle(txID string, t *txn, v core.Value) {
	p.announce(txID, v)
	if v == core.Commit {
		p.res.Commit(txID)
	} else {
		p.res.Abort(txID)
	}
	close(t.done)
	p.mu.Lock()
	p.settled = append(p.settled, settled{txID, time.Now()})
	first := len(p.settled) == 1
	p.mu.Unlock()
	if first {
		live.After(retireGraceUnits*p.opts.Timeout, p.retire)
	}
}

// announce checks our decision v against the remote ones that arrived
// before it, and broadcasts it so every peer can do the same — only while
// an auditor is installed or the flight recorder is on: nobody else reads
// it, and it is n(n-1) envelopes on top of a protocol built to need 2fn.
func (p *Peer) announce(txID string, v core.Value) {
	p.mu.Lock()
	stash, _ := p.reports.get(txID)
	closed := p.closed
	p.mu.Unlock()
	for _, r := range stash {
		p.crossCheck(txID, r.from, r.v, v)
	}
	if !closed && (obs.ActiveAuditor() != nil || obs.Default.Enabled()) {
		p.broadcast(txID, decidePath, decideMsg{V: v})
	}
}

// broadcast sends m to every other peer.
func (p *Peer) broadcast(txID, path string, m core.Message) {
	for q := core.ProcessID(1); int(q) <= p.n; q++ {
		if q != p.id {
			_ = p.tr.Send(live.Envelope{TxID: txID, From: p.id, To: q, Path: path, Msg: m})
		}
	}
}

// observeDecision handles a peer's decision announcement for txID: compare
// it against ours if we have one (live or cached), else stash it until ours
// lands. A disagreement is reported through the anomaly hook with the full
// flight-recorder timeline. final marks a retired peer's answer to our
// straggler (see deliver): an instance still undecided adopts that decision.
func (p *Peer) observeDecision(from core.ProcessID, txID string, theirs core.Value, final bool) {
	// Feed the remote decision to the auditor: announcements are how one
	// process's auditor learns the rest of the decision vector. Decide is
	// idempotent for repeated equal values, so re-announcements are free.
	if a := obs.ActiveAuditor(); a != nil {
		a.Decide(txID, from, theirs, "")
	}
	p.mu.Lock()
	ours, known := p.decided.get(txID)
	if t := p.txns[txID]; !known && t != nil && t.inst != nil {
		if final {
			t.inst.Adopt(theirs)
		}
		select {
		case <-t.inst.Done():
			ours, known = t.inst.Outcome(), true
		default:
		}
	}
	if !known {
		stash, _ := p.reports.get(txID)
		p.reports.put(txID, append(stash, peerReport{from: from, v: theirs}))
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.crossCheck(txID, from, theirs, ours)
}

// crossCheck reports a decision disagreement between this peer and from.
func (p *Peer) crossCheck(txID string, from core.ProcessID, theirs, ours core.Value) {
	if theirs != ours {
		obs.ReportAnomaly("peer-decision-mismatch", txID,
			fmt.Sprintf("%v decided %s but %v decided %s", p.id, ours, from, theirs))
	}
}

// ServeDebug starts the observability HTTP endpoint (expvar under
// /debug/vars, the metrics registry under /debug/metrics, the flight
// recorder under /debug/trace, and net/http/pprof under /debug/pprof/) on
// addr, returning the bound address (useful with ":0"). The server stops
// when the peer closes.
func (p *Peer) ServeDebug(addr string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", fmt.Errorf("commit: peer closed")
	}
	if p.debug != nil {
		return "", fmt.Errorf("commit: debug endpoint already serving")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: obs.DebugHandler()}
	p.debug = srv
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Commit initiates transaction txID from this peer and blocks until the
// LOCAL decision is applied (other peers decide on their own and fire their
// callbacks). It returns true iff the transaction committed.
func (p *Peer) Commit(ctx context.Context, txID string) (bool, error) {
	if txID == "" {
		return false, fmt.Errorf("commit: txID required")
	}
	// Announce the transaction so every peer starts (roughly) together.
	p.broadcast(txID, beginPath, beginMsg{})
	return p.Wait(ctx, txID)
}

// Wait blocks until this peer's instance for txID (started by any peer, or
// by this call: the paper's footnote-13 spontaneous start, which costs no
// message) has decided and the local Resource applied the decision. A
// transaction that already retired answers from the outcome cache.
func (p *Peer) Wait(ctx context.Context, txID string) (bool, error) {
	p.mu.Lock()
	t, first := p.join(txID)
	v, retired := p.decided.get(txID)
	p.mu.Unlock()
	if first {
		p.run(txID, t)
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
		if t.inst != nil {
			t.inst.Close() // stops its timers; takes no lock of ours
		}
	}
	p.txns = make(map[string]*txn)
	debug := p.debug
	p.mu.Unlock()
	if debug != nil {
		debug.Close()
	}
	p.tr.Close()
}
