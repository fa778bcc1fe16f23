package commit

import (
	"context"
	"fmt"
	"time"

	"atomiccommit/internal/obs"
)

// Pipeline depth gauges: how many submissions sit queued behind the window
// and how many transactions are actively running. Sampled by /debug/metrics
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

	ctx   context.Context
	start time.Time // when the dispatcher began running the transaction
	end   time.Time

	done      chan struct{}
	committed bool
	err       error
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

func (t *Txn) resolve(ok bool, err error) {
	t.end = time.Now()
	t.committed, t.err = ok, err
	close(t.done)
}

// ResolvedTxn returns a future that is already resolved with the given
// decision and no error. Layers above the pipeline (e.g. kv) use it to
// short-circuit trivial transactions while keeping a uniform future-based
// API; the ID is not registered with any cluster.
func ResolvedTxn(txID string, committed bool) *Txn {
	t, resolve := UnresolvedTxn(txID)
	resolve(committed, nil)
	return t
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
// future immediately. The pipeline's dispatcher runs up to
// Options.MaxInFlight transactions concurrently, each a full protocol
// instance with its own per-member state (instances are routed by TxID);
// submissions beyond the window queue in order.
//
// ctx bounds the transaction itself: if it expires while the transaction is
// queued or running, the future resolves with its error. A nil ctx defaults
// to context.Background(). Resources must be safe for concurrent use once
// transactions are pipelined. A txID that is in flight (or in the bounded
// decided-set) is rejected — the future resolves with an error — because
// instances are routed by txID and reuse would cross-wire two transactions.
func (c *Cluster) Submit(ctx context.Context, txID string) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	id, err := c.reserveTxID(txID)
	if err != nil {
		t := &Txn{TxID: txID, ctx: ctx, done: make(chan struct{})}
		t.start = time.Now()
		t.resolve(false, err)
		return t
	}
	t := &Txn{TxID: id, ctx: ctx, done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		delete(c.inflight, t.TxID)
		c.mu.Unlock()
		t.start = time.Now()
		t.resolve(false, fmt.Errorf("commit: cluster closed"))
		return t
	}
	if !c.dispatching {
		c.dispatching = true
		go c.dispatch()
	}
	c.queue = append(c.queue, t)
	gQueueDepth.Set(int64(len(c.queue)))
	c.qcond.Signal()
	c.mu.Unlock()
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

// dispatch is the pipeline's dispatcher loop: it pulls submissions off the
// queue in order and runs each through the shared transaction runner
// (begin/finish in cluster.go), admitting at most MaxInFlight at a time.
// It exits when the cluster closes, resolving whatever is still queued.
func (c *Cluster) dispatch() {
	window := make(chan struct{}, c.opts.MaxInFlight)
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.qcond.Wait()
		}
		if c.closed {
			queue := c.queue
			c.queue = nil
			gQueueDepth.Set(0)
			for _, t := range queue {
				delete(c.inflight, t.TxID)
			}
			c.mu.Unlock()
			for _, t := range queue {
				t.start = time.Now()
				t.resolve(false, fmt.Errorf("commit: cluster closed"))
			}
			return
		}
		t := c.queue[0]
		c.queue = c.queue[1:]
		gQueueDepth.Set(int64(len(c.queue)))
		c.mu.Unlock()

		select {
		case window <- struct{}{}:
		case <-t.ctx.Done():
			c.unreserve(t.TxID)
			t.start = time.Now()
			t.resolve(false, fmt.Errorf("commit: submit %s: %w", t.TxID, t.ctx.Err()))
			continue
		case <-c.stop:
			c.unreserve(t.TxID)
			t.start = time.Now()
			t.resolve(false, fmt.Errorf("commit: cluster closed"))
			continue
		}
		go func(t *Txn) {
			gInFlight.Add(1)
			defer func() {
				gInFlight.Add(-1)
				<-window
			}()
			t.start = time.Now()
			r, err := c.begin(t.TxID)
			if err != nil {
				c.unreserve(t.TxID)
				t.resolve(false, err)
				return
			}
			ok, err := r.finish(t.ctx)
			t.resolve(ok, err)
		}(t)
	}
}
