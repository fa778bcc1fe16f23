package commit

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// errClusterClosed resolves what a closing cluster leaves unfinished.
var errClusterClosed = errors.New("commit: cluster closed")

// ErrAgreementViolation is wrapped into the error Commit returns when the
// cross-member agreement check fails — the one error callers may want to
// tell apart (errors.Is), e.g. to keep a measurement run going while the
// auditor records the violation.
var ErrAgreementViolation = errors.New("commit: agreement violation")

// Cluster runs n participants in one address space: n Peers on the
// endpoints of an in-memory mesh, plus a driver that starts a transaction
// on every peer and gathers their outcomes. It is the quickest way to use
// the library and the substrate of the examples. Commit runs one
// transaction synchronously; Submit and CommitMany run many concurrently
// through the pipeline (see pipeline.go).
type Cluster struct {
	opts  Options
	mesh  *live.Mesh
	peers []*Peer // peers[i-1] is Pi; fixed after NewCluster

	mu     sync.Mutex
	closed bool
	seq    int

	// txID bookkeeping for the documented reuse rule: an ID may not be
	// resubmitted while it is in flight, nor after it decided (instances are
	// routed by txID, so reuse would cross-wire two transactions). inflight
	// maps every reserved ID to its run, nil until begin started one.
	inflight map[string]*txnRun
	finished boundedMap[struct{}]

	// Pipeline state (pipeline.go): submissions waiting, in order, for one
	// of the opts.MaxInFlight slots, and how many slots are taken. A run
	// that ends passes its slot on; nothing waits per transaction.
	queue []*Txn
	slots int
}

// NewCluster builds a cluster with one participant per resource.
func NewCluster(resources []Resource, opts Options) (*Cluster, error) {
	n := len(resources)
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{opts: opts, mesh: live.NewMesh(), inflight: make(map[string]*txnRun)}
	if opts.Net != nil {
		sh := opts.Net.Shaper(time.Now())
		c.mesh.Latency = sh.Delay
		c.mesh.Drop = sh.Drop
	}
	for i, res := range resources {
		id := core.ProcessID(i + 1)
		c.peers = append(c.peers, newPeer(id, n, c.mesh.Endpoint(id), res, opts))
	}
	return c, nil
}

// Mesh exposes the underlying network for latency/partition injection in
// tests and demos.
func (c *Cluster) Mesh() *live.Mesh { return c.mesh }

// NewClient attaches a Client with process ID id to the cluster's mesh: the
// same client a deployment of Peers gets from the package-level NewClient,
// with its footprints, queries and results carried by the mesh, not by TCP.
// id must exceed the number of peers and be unique among the cluster's
// clients. Close the client before the cluster.
func (c *Cluster) NewClient(id int) (*Client, error) {
	n := len(c.peers)
	if id <= n {
		return nil, fmt.Errorf("%w: client id %d must exceed the peer count %d", ErrPeerID, id, n)
	}
	return newClient(core.ProcessID(id), n, c.mesh.Endpoint(core.ProcessID(id)), c.opts), nil
}

// txnRun is the driver's view of one transaction: every peer's record of it
// and the future it resolves. Nothing waits on it: each peer's apply counts
// it down (applied), and the last one checks agreement and resolves the
// future — unless the caller's context expired first (expire) or the cluster
// closed. Commit runs one outside the pipeline's window; Submit, many in it.
type txnRun struct {
	c    *Cluster
	fut  *Txn
	txns []*txn // txns[i-1] is Pi's record
	slot bool   // holds one of the pipeline's MaxInFlight slots
	// left counts the applies still to come, plus one that begin holds until
	// it is done with the run.
	left atomic.Int32
	over atomic.Bool // whoever sets it resolves the future (end)
}

// runPath and runMsg carry the driver's start of a peer (begin) through the
// mesh's Post: local work on the peer's delivery goroutine, never a network
// message — runMsg has no wire form, so no transport decodes one.
const runPath = "run"

type runMsg struct{ t *txn }

func (runMsg) Kind() string { return "RUN" }

// reserveTxID allocates a fresh transaction ID when the caller passed ""
// (skipping any ID a caller used explicitly) and registers it as in flight.
// A caller-supplied ID that is already in flight or recently decided is
// rejected: instances are routed by txID, so reuse would cross-wire two
// transactions.
func (c *Cluster) reserveTxID(txID string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if txID != "" {
		if _, ok := c.inflight[txID]; ok {
			return "", fmt.Errorf("commit: txID %q is already in flight", txID)
		}
		if _, ok := c.finished.get(txID); ok {
			return "", fmt.Errorf("commit: txID %q was already decided", txID)
		}
	}
	for used := txID == ""; used; {
		c.seq++
		txID = fmt.Sprintf("tx-%d", c.seq)
		_, running := c.inflight[txID]
		_, decided := c.finished.get(txID)
		used = running || decided
	}
	c.inflight[txID] = nil
	return txID, nil
}

// markFinished moves a decided txID from the in-flight set to the bounded
// finished set, where resubmissions keep being rejected.
func (c *Cluster) markFinished(txID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, txID)
	c.finished.put(txID, struct{}{})
}

// begin starts t: it joins t.TxID on every peer in-process, then posts each
// claimed record's start to its peer's delivery goroutine (Mesh.Post), where
// the peer votes via its Resource's Prepare and spontaneously starts its
// instance (the paper's footnote-13 convention): no begin message is sent,
// so a nice execution pays the protocol's own messages only, and the caller
// — Submit, or a run passing its slot on — never runs a Resource method.
// Every record is claimed before any peer runs: an early peer's vote finds a
// later one's record and waits in it, and no peer can have decided — and
// with that retired the record — before the driver holds it. slot says t
// holds one of the pipeline's slots, which the run passes on when it ends.
func (c *Cluster) begin(t *Txn, slot bool) *txnRun {
	n := len(c.peers)
	r := &txnRun{c: c, fut: t, slot: slot, txns: make([]*txn, n)}
	r.left.Store(int32(n + 1))
	t.start = time.Now()
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.inflight[t.TxID] = r // the cluster's Close ends it from here on
	}
	c.mu.Unlock()
	if closed {
		r.fail(errClusterClosed)
		return r
	}
	claimed := make([]bool, n)
	var missing *Peer
	for i, p := range c.peers {
		p.mu.Lock()
		tx, first := p.join(t.TxID)
		if tx != nil {
			tx.run = r
		} else if missing == nil {
			missing = p
		}
		r.txns[i], claimed[i] = tx, first // under p.mu, which expire takes
		p.mu.Unlock()
	}
	for i, p := range c.peers {
		if claimed[i] {
			c.mesh.Post(live.Envelope{TxID: t.TxID, From: p.id, To: p.id, Path: runPath, Msg: runMsg{r.txns[i]}})
		}
	}
	switch {
	case missing != nil:
		r.fail(fmt.Errorf("commit: %v cannot start %s: closed, or already decided there", missing.id, t.TxID))
	case t.ctx.Err() != nil:
		// The context may have expired before the run was filed to expire.
		r.expire(t.ctx.Err())
	}
	r.applied() // begin's own count
	return r
}

// applied counts one apply (or begin's own count) down; the last runs
// complete.
func (r *txnRun) applied() {
	if r.left.Add(-1) == 0 {
		r.complete()
	}
}

// complete runs once every peer applied its own decision to its Resource
// (Peer.settle), so committed means applied everywhere. It runs on the last
// peer's apply worker, after every peer's decision is in, so the
// cross-member agreement check sees the full decision vector (and every
// member's decide event is in the flight recorder) rather than stopping at
// the first mismatching pair.
func (r *txnRun) complete() {
	if !r.over.CompareAndSwap(false, true) {
		return // expired, or closed, already
	}
	proto := string(r.c.opts.Protocol)
	vals := make([]core.Value, len(r.txns))
	allYes := true // every resource voted commit (abort-reason attribution)
	for i, tx := range r.txns {
		vals[i] = tx.inst.Outcome()
		allYes = allYes && tx.vote == core.Commit
	}
	first := vals[0]
	for _, v := range vals[1:] {
		if v != first {
			// Cannot happen for protocols whose contract includes
			// agreement in the executions the deployment can produce;
			// surfacing it — with the full interleaving that produced
			// it — beats hiding it.
			detail := r.decisionVector(vals)
			obs.ReportAnomaly("cluster-agreement-violation", r.fut.TxID, detail)
			r.end(false, fmt.Errorf("%w on %s: %s", ErrAgreementViolation, r.fut.TxID, detail))
			return
		}
	}

	// Latency by protocol and decide path (the initiating member's path;
	// "" for protocols that do not annotate one).
	path := r.txns[0].inst.DecidePath()
	if path == "" {
		path = "default"
	}
	obs.M.Histogram("commit.latency_ns." + proto + "." + path).Record(int64(time.Since(r.fut.start)))
	if first == core.Commit {
		obs.M.Counter("commit.committed." + proto).Add(1)
	} else if allYes {
		// All resources voted yes, yet the decision is abort: an indulgent
		// protocol's legal reaction to a violated timing bound.
		obs.M.Counter("commit.abort.timing." + proto).Add(1)
	} else {
		// At least one "no" vote (e.g. a kv conflict): a normal abort.
		obs.M.Counter("commit.abort.vote." + proto).Add(1)
	}
	r.end(first == core.Commit, nil)
}

// expire resolves the future with its context's error while some peer has
// yet to apply the decision: an infrastructure abort. The auditor is told
// that peer is suspect, so the transaction is audited under a failure
// class, not failure-free. The peers run on and apply what they decide.
func (r *txnRun) expire(err error) {
	var late *Peer
	for i, p := range r.c.peers {
		p.mu.Lock()
		tx := r.txns[i]
		pending := tx != nil && tx.phase != settled
		p.mu.Unlock()
		if pending {
			late = p
			break
		}
	}
	if late == nil || !r.over.CompareAndSwap(false, true) {
		return // every peer applied: complete resolves it, or did
	}
	txID := r.fut.TxID
	err = fmt.Errorf("commit instance %s at %v: %w", txID, late.id, err)
	obs.M.Counter("commit.abort.infra." + string(r.c.opts.Protocol)).Add(1)
	if a := obs.ActiveAuditor(); a != nil {
		a.Suspect(txID, late.id, err.Error())
	}
	r.end(false, err)
}

// fail ends the run with err unless something else already ended it.
func (r *txnRun) fail(err error) {
	if r.over.CompareAndSwap(false, true) {
		r.end(false, err)
	}
}

// end resolves the future of a run that is over (its caller set r.over),
// files the txID as finished and passes the run's slot on.
func (r *txnRun) end(ok bool, err error) {
	c := r.c
	c.markFinished(r.fut.TxID)
	r.fut.resolve(ok, err)
	if r.slot {
		if t := c.next(); t != nil {
			c.begin(t, true)
		}
	}
}

// decisionVector renders every member's decision and decide path, the
// anomaly detail line of an agreement violation:
// "P1=commit(fast) P2=abort(consensus) ...".
func (r *txnRun) decisionVector(vals []core.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		path := r.txns[i].inst.DecidePath()
		if path == "" {
			path = "?"
		}
		fmt.Fprintf(&b, "%s=%s(%s)", r.c.peers[i].id, v, path)
	}
	return b.String()
}

// Commit runs one atomic commit instance across all participants: every
// resource is asked to Prepare (its vote), the configured protocol decides,
// and each participant fires its Commit/Abort callback on its own decision.
// It returns the decision (true = committed) once every participant has
// applied it.
//
// The returned error reports infrastructure problems (context expiry before
// a decision, closed cluster, a txID that is already in flight or recently
// decided); a unanimous abort is a normal outcome, not an error. A nil ctx
// defaults to context.Background().
func (c *Cluster) Commit(ctx context.Context, txID string) (bool, error) {
	txID, err := c.reserveTxID(txID)
	if err != nil {
		return false, err
	}
	t := newTxn(ctx, txID)
	c.mu.Lock()
	t.watchContext(c.expire)
	c.mu.Unlock()
	c.begin(t, false)
	<-t.done
	return t.committed, t.err
}

// Close shuts the cluster down: in-flight transactions and queued pipeline
// submissions resolve with an error, and every peer closes.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	queue := c.queue
	c.queue = nil
	gQueueDepth.Set(0)
	var runs []*txnRun
	for _, r := range c.inflight {
		if r != nil {
			runs = append(runs, r)
		}
	}
	c.mu.Unlock()
	for _, t := range queue {
		t.resolve(false, errClusterClosed)
	}
	for _, r := range runs {
		r.fail(errClusterClosed)
	}
	for _, p := range c.peers {
		p.Close()
	}
}
