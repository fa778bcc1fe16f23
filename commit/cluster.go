package commit

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

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
	// routed by txID, so reuse would cross-wire two transactions).
	inflight map[string]struct{}
	finished boundedMap[struct{}]

	// Pipeline state (pipeline.go): a lazily-started dispatcher pulls
	// submissions off queue and runs them with at most opts.MaxInFlight
	// transactions in flight.
	queue       []*Txn
	qcond       *sync.Cond
	dispatching bool
	stop        chan struct{}
}

// NewCluster builds a cluster with one participant per resource.
func NewCluster(resources []Resource, opts Options) (*Cluster, error) {
	n := len(resources)
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts: opts, mesh: live.NewMesh(), stop: make(chan struct{}),
		inflight: make(map[string]struct{}),
	}
	if opts.Net != nil {
		sh := opts.Net.Shaper(time.Now())
		c.mesh.Latency = sh.Delay
		c.mesh.Drop = sh.Drop
	}
	c.qcond = sync.NewCond(&c.mu)
	for i, res := range resources {
		id := core.ProcessID(i + 1)
		c.peers = append(c.peers, newPeer(id, n, c.mesh.Endpoint(id), res, opts))
	}
	return c, nil
}

// Mesh exposes the underlying network for latency/partition injection in
// tests and demos.
func (c *Cluster) Mesh() *live.Mesh { return c.mesh }

// txnRun is the driver's view of one transaction: every peer's record of
// it. Commit runs one synchronously; the pipeline dispatcher runs many
// concurrently.
type txnRun struct {
	c     *Cluster
	txID  string
	txns  []*txn // txns[i-1] is Pi's record
	begun time.Time
}

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
	c.inflight[txID] = struct{}{}
	return txID, nil
}

// unreserve releases a reserved txID that never reached a protocol instance
// (begin failed, or the submission expired in the queue): the ID may be
// reused.
func (c *Cluster) unreserve(txID string) {
	c.mu.Lock()
	delete(c.inflight, txID)
	c.mu.Unlock()
}

// markFinished moves a decided txID from the in-flight set to the bounded
// finished set, where resubmissions keep being rejected.
func (c *Cluster) markFinished(txID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, txID)
	c.finished.put(txID, struct{}{})
}

// begin joins txID on every peer in-process, then runs each: it votes via
// its Resource's Prepare and spontaneously starts its instance (the paper's
// footnote-13 convention), so no begin message is sent and a nice execution
// pays the protocol's own messages only. Every record is claimed before any
// peer runs: an early peer's vote finds a later one's record and waits in
// it, and no peer can have decided and retired before the driver holds its
// record.
func (c *Cluster) begin(txID string) (*txnRun, error) {
	r := &txnRun{c: c, txID: txID, txns: make([]*txn, len(c.peers))}
	claimed := make([]bool, len(c.peers))
	for i, p := range c.peers {
		p.mu.Lock()
		r.txns[i], claimed[i] = p.join(txID)
		p.mu.Unlock()
	}
	for i, p := range c.peers {
		if claimed[i] {
			p.run(txID, r.txns[i], nil)
		}
	}
	for i, t := range r.txns {
		if t == nil {
			return nil, fmt.Errorf("commit: %v cannot start %s: closed, or already decided there", c.peers[i].id, txID)
		}
	}
	r.begun = time.Now()
	return r, nil
}

// finish gathers every peer's outcome; each applied its own decision to its
// Resource before reporting (Peer.settle), so committed means applied
// everywhere. Every peer is waited for before the cross-member agreement
// check runs, so a violation dump holds the full decision vector (and every
// member's decide event is in the flight recorder) rather than stopping at
// the first mismatching pair.
func (r *txnRun) finish(ctx context.Context) (bool, error) {
	defer r.c.markFinished(r.txID)

	proto := string(r.c.opts.Protocol)
	vals := make([]core.Value, len(r.txns))
	allYes := true // every resource voted commit (abort-reason attribution)
	for i, p := range r.c.peers {
		if _, err := p.Wait(ctx, r.txID); err != nil {
			obs.M.Counter("commit.abort.infra." + proto).Add(1)
			// An infra abort means this member never decided within its
			// deadline: tell the auditor so the transaction is audited
			// under a failure class, not failure-free.
			if a := obs.ActiveAuditor(); a != nil {
				a.Suspect(r.txID, p.id, err.Error())
			}
			return false, err
		}
		vals[i] = r.txns[i].inst.Outcome()
		allYes = allYes && r.txns[i].vote == core.Commit
	}
	first := vals[0]
	for _, v := range vals[1:] {
		if v != first {
			// Cannot happen for protocols whose contract includes
			// agreement in the executions the deployment can produce;
			// surfacing it — with the full interleaving that produced
			// it — beats hiding it.
			detail := r.decisionVector(vals)
			obs.ReportAnomaly("cluster-agreement-violation", r.txID, detail)
			return false, fmt.Errorf("%w on %s: %s", ErrAgreementViolation, r.txID, detail)
		}
	}

	// Latency by protocol and decide path (the initiating member's path;
	// "" for protocols that do not annotate one).
	path := r.txns[0].inst.DecidePath()
	if path == "" {
		path = "default"
	}
	obs.M.Histogram("commit.latency_ns." + proto + "." + path).Record(int64(time.Since(r.begun)))
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
	return first == core.Commit, nil
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
	if ctx == nil {
		ctx = context.Background()
	}
	txID, err := c.reserveTxID(txID)
	if err != nil {
		return false, err
	}
	r, err := c.begin(txID)
	if err != nil {
		c.unreserve(txID)
		return false, err
	}
	return r.finish(ctx)
}

// Close shuts the cluster down; in-flight Commit calls may fail, and queued
// pipeline submissions resolve with an error.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.qcond.Broadcast()
	c.mu.Unlock()
	for _, p := range c.peers {
		p.Close()
	}
}
