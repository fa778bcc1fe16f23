package commit

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Txn is the future returned by Submit: a handle to one asynchronously
// running transaction. Wait (or Done + Committed/Err) observes the outcome.
type Txn struct {
	// TxID is the transaction's identifier (allocated if Submit got "").
	TxID string

	ctx     context.Context
	unwatch func() bool // stops ctx's watch; nil if nothing watches it
	start   time.Time   // when it was submitted

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
	return &Txn{TxID: txID, ctx: ctx, start: time.Now(), done: make(chan struct{})}
}

// Done is closed once the transaction's outcome is available.
func (t *Txn) Done() <-chan struct{} { return t.done }

// Committed reports the decision; valid only after Done is closed.
func (t *Txn) Committed() bool { return t.committed }

// Err returns the infrastructure error, if any; valid only after Done is
// closed. A unanimous abort is a normal outcome, not an error.
func (t *Txn) Err() error { return t.err }

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
// Client.finish).
func (t *Txn) resolve(ok bool, err error) {
	if t.unwatch != nil {
		t.unwatch()
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
// resolve exactly once, for a transaction a layer above the Client decides
// without running an atomic-commit instance (kv's read-only validation).
// The ID is not registered with any client.
func UnresolvedTxn(txID string) (t *Txn, resolve func(committed bool, err error)) {
	t = newTxn(context.Background(), txID)
	return t, t.resolve
}
