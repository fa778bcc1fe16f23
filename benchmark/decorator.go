package main

import (
	"atomiccommit/commit"
)

// resourceDeco wraps one peer's commit.Resource. It is the benchmark's
// only vantage point inside the cluster: every vote and outcome callback
// goes to the ledger (the output checker), and while the tracer is on each
// call into the wrapped resource becomes a span. Calls and results pass
// through unchanged.
type resourceDeco struct {
	peer  int // 1-based, the peer's process ID
	inner commit.Resource
	led   *ledger
	tr    *tracer
}

func (d *resourceDeco) Prepare(txID string) bool {
	t0 := d.tr.begin()
	yes := d.inner.Prepare(txID)
	d.tr.end(d.peer, spanPrepare, txID, t0)
	d.led.vote(txID, d.peer, yes)
	return yes
}

func (d *resourceDeco) Commit(txID string) {
	t0 := d.tr.begin()
	d.inner.Commit(txID)
	d.tr.end(d.peer, spanCommit, txID, t0)
	d.led.outcome(txID, d.peer, true)
}

func (d *resourceDeco) Abort(txID string) {
	t0 := d.tr.begin()
	d.inner.Abort(txID)
	d.tr.end(d.peer, spanAbort, txID, t0)
	d.led.outcome(txID, d.peer, false)
}

// hostedDeco additionally forwards the HostedResource half. It is a
// separate type because commit.NewPeer decides whether to serve remote
// clients by asserting HostedResource: a plain Resource must not grow the
// methods by being wrapped.
type hostedDeco struct {
	resourceDeco
	hosted commit.HostedResource
}

func (d *hostedDeco) Stage(txID string, m commit.Message) error {
	t0 := d.tr.begin()
	err := d.hosted.Stage(txID, m)
	d.tr.end(d.peer, spanStage, txID, t0)
	return err
}

func (d *hostedDeco) Query(m commit.Message) (commit.Message, error) {
	t0 := d.tr.begin()
	reply, err := d.hosted.Query(m)
	d.tr.end(d.peer, spanQuery, "", t0)
	return reply, err
}

// decorate wraps r for peer (1-based), keeping HostedResource-ness.
func decorate(peer int, r commit.Resource, led *ledger, tr *tracer) commit.Resource {
	base := resourceDeco{peer: peer, inner: r, led: led, tr: tr}
	if h, ok := r.(commit.HostedResource); ok {
		return &hostedDeco{resourceDeco: base, hosted: h}
	}
	return &base
}
