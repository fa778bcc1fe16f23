package commit

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"atomiccommit/internal/obs"
)

// Pipeline depth gauges: how many submissions sit queued behind the window
// and how many of its slots are taken. Sampled by /debug/metrics
// and the bench counter deltas.
var (
	gQueueDepth = obs.M.Gauge("pipeline.queue_depth")
	gInFlight   = obs.M.Gauge("pipeline.inflight")
)

// Txn is the future returned by Submit: a handle to one asynchronously
// running transaction. Wait (or Done + Committed/Err) observes the outcome.
type Txn struct {
	// TxID is the transaction's identifier (allocated if Submit got "").
	TxID string

	ctx     context.Context
	unwatch func() bool // stops ctx's watch; nil if nothing watches it
	start   time.Time   // when the transaction began running
	end     time.Time

	done      chan struct{}
	committed bool
	err       error

	mu       sync.Mutex // orders resolve against OnResolve
	resolved bool
	hook     func(committed bool, err error)
}

// newTxn returns the unresolved future of txID, bounded by ctx (nil: no
// bound).
func newTxn(ctx context.Context, txID string) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Txn{TxID: txID, ctx: ctx, done: make(chan struct{})}
}

// Done is closed once the transaction's outcome is available.
func (t *Txn) Done() <-chan struct{} { return t.done }

// Committed reports the decision; valid only after Done is closed.
func (t *Txn) Committed() bool { return t.committed }

// Err returns the infrastructure error, if any; valid only after Done is
// closed. A unanimous abort is a normal outcome, not an error.
func (t *Txn) Err() error { return t.err }

// Latency is the wall-clock time from dispatch to decision; valid only
// after Done is closed. Queueing time behind the in-flight window is
// excluded, so this measures the protocol, not the backlog.
func (t *Txn) Latency() time.Duration { return t.end.Sub(t.start) }

// Wait blocks until the transaction decides or ctx expires, returning the
// decision (true = committed).
func (t *Txn) Wait(ctx context.Context) (bool, error) {
	select {
	case <-t.done:
		return t.committed, t.err
	case <-ctx.Done():
		return false, fmt.Errorf("commit: wait %s: %w", t.TxID, ctx.Err())
	}
}

// resolve settles the future; its caller is the one that may (see
// txnRun.over, Cluster.expire, Client.resolve). A transaction that never
// began running has zero latency.
func (t *Txn) resolve(ok bool, err error) {
	if t.unwatch != nil {
		t.unwatch()
	}
	t.end = time.Now()
	if t.start.IsZero() {
		t.start = t.end
	}
	t.committed, t.err = ok, err
	t.mu.Lock()
	t.resolved = true
	hook := t.hook
	t.mu.Unlock()
	if hook != nil {
		hook(ok, err)
	}
	close(t.done)
}

// OnResolve arranges for fn to get the outcome once the transaction
// resolves, before Done closes, so that whoever sees Done closed sees what fn
// did. fn runs on the goroutine that resolves the future — a client's
// delivery path, the timer goroutine, a context's AfterFunc, or Close — and
// must not block; on the caller's, before OnResolve returns, if the future
// has resolved already. A Txn takes one hook.
func (t *Txn) OnResolve(fn func(committed bool, err error)) {
	t.mu.Lock()
	if !t.resolved {
		t.hook = fn
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	fn(t.committed, t.err)
}

// watchContext arranges for expire to run once ctx ends — with
// context.AfterFunc, so a watch costs no goroutine, and a context that
// never ends costs nothing at all. The caller holds the lock expire takes
// first, so t.unwatch is set before expire can resolve t.
func (t *Txn) watchContext(expire func(*Txn)) {
	if t.ctx.Done() != nil {
		t.unwatch = context.AfterFunc(t.ctx, func() { expire(t) })
	}
}

// UnresolvedTxn returns a future that its caller resolves, by calling
// resolve exactly once, for a transaction a layer above the pipeline decides
// without running an atomic-commit instance (kv's read-only validation).
// Latency runs from this call to resolve; the ID is not registered with
// any cluster.
func UnresolvedTxn(txID string) (t *Txn, resolve func(committed bool, err error)) {
	t = &Txn{TxID: txID, done: make(chan struct{}), start: time.Now()}
	return t, t.resolve
}

// Submit enqueues one transaction on the commit pipeline and returns a
// future immediately. Up to Options.MaxInFlight transactions run
// concurrently, each a full protocol instance with its own per-member state
// (instances are routed by TxID); submissions beyond the window queue in
// order, and each run that ends starts the oldest of them in its place.
//
// ctx bounds the transaction itself: if it expires while the transaction is
// queued or running, the future resolves with its error. A nil ctx defaults
// to context.Background(). Resources must be safe for concurrent use once
// transactions are pipelined. A txID that is in flight (or in the bounded
// decided-set) is rejected — the future resolves with an error — because
// instances are routed by txID and reuse would cross-wire two transactions.
func (c *Cluster) Submit(ctx context.Context, txID string) *Txn {
	t := newTxn(ctx, txID)
	id, err := c.reserveTxID(txID)
	if err != nil {
		t.resolve(false, err)
		return t
	}
	t.TxID = id
	c.mu.Lock()
	if c.closed {
		delete(c.inflight, id)
		c.mu.Unlock()
		t.resolve(false, errClusterClosed)
		return t
	}
	run := c.slots < c.opts.MaxInFlight && len(c.queue) == 0
	if run {
		c.slots++
		gInFlight.Set(int64(c.slots))
	} else {
		c.queue = append(c.queue, t)
		gQueueDepth.Set(int64(len(c.queue)))
	}
	t.watchContext(c.expire)
	c.mu.Unlock()
	if run {
		c.begin(t, true)
	}
	return t
}

// expire resolves t with its context's error, whether it still waits for a
// slot — it leaves the queue, and its ID is free again — or runs (see
// txnRun.expire).
func (c *Cluster) expire(t *Txn) {
	err := t.ctx.Err()
	c.mu.Lock()
	if i := slices.Index(c.queue, t); i >= 0 {
		c.queue = slices.Delete(c.queue, i, i+1)
		gQueueDepth.Set(int64(len(c.queue)))
		delete(c.inflight, t.TxID)
		c.mu.Unlock()
		t.resolve(false, fmt.Errorf("commit: submit %s: %w", t.TxID, err))
		return
	}
	r := c.inflight[t.TxID]
	c.mu.Unlock()
	if r != nil && r.fut == t {
		r.expire(err)
	}
}

// next passes the slot its caller holds to the oldest queued submission,
// which it returns, or frees the slot when none waits (nil).
func (c *Cluster) next() *Txn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 || c.closed {
		c.slots--
		gInFlight.Set(int64(c.slots))
		return nil
	}
	t := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	gQueueDepth.Set(int64(len(c.queue)))
	return t
}

// CommitMany submits every txID (allocating IDs for empty strings) and
// waits for all of them. results[i] is txIDs[i]'s decision; the first
// per-transaction error, if any, is returned after every future resolved.
func (c *Cluster) CommitMany(ctx context.Context, txIDs []string) ([]bool, error) {
	return commitMany(ctx, txIDs, c.Submit)
}

// commitMany is CommitMany over a Cluster's or a Client's Submit.
func commitMany(ctx context.Context, txIDs []string, submit func(context.Context, string) *Txn) ([]bool, error) {
	txns := make([]*Txn, len(txIDs))
	for i, id := range txIDs {
		txns[i] = submit(ctx, id)
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
