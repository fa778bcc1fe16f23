package commit

import (
	"context"
	"errors"
	"fmt"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
)

// ErrAgreementViolation was wrapped into a Cluster commit's error when its
// members decided differently. Agreement is now checked by the live auditor
// alone (anomaly "audit-agreement"), and a commit answers with its
// coordinator's decision.
//
// Deprecated: nothing returns it.
var ErrAgreementViolation = errors.New("commit: agreement violation")

// Cluster runs n participants in one address space: n Peers on the
// endpoints of an in-memory mesh, and one Client, process n+1, that drives
// Commit, Submit and CommitMany — the same Peers and Client a TCP
// deployment runs, with the mesh in place of sockets. It is the quickest way
// to use the library and the substrate of the examples.
type Cluster struct {
	mesh   *live.Mesh
	peers  []*Peer // peers[i-1] is Pi; fixed after NewCluster
	client *Client // process n+1
}

// NewCluster builds a cluster with one participant per resource.
func NewCluster(resources []Resource, opts Options) (*Cluster, error) {
	n := len(resources)
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{mesh: live.NewMesh()}
	if opts.Net != nil {
		c.mesh.SetShaper(opts.Net.Shaper(time.Now()))
	}
	for i, res := range resources {
		id := core.ProcessID(i + 1)
		c.peers = append(c.peers, newPeer(id, n, c.mesh.Endpoint(id), res, opts))
	}
	id := core.ProcessID(n + 1)
	c.client = newClient(id, n, c.mesh.Endpoint(id), opts)
	return c, nil
}

// Mesh exposes the underlying network for latency/partition injection in
// tests and demos.
func (c *Cluster) Mesh() *live.Mesh { return c.mesh }

// NewClient attaches a Client with process ID id to the cluster's mesh: the
// same client a deployment of Peers gets from the package-level NewClient,
// with its footprints, queries and results carried by the mesh, not by TCP.
// id must exceed n+1 — the peers are 1..n and the cluster's own client is
// n+1 — and be unique among the cluster's clients. Close the client before
// the cluster.
func (c *Cluster) NewClient(id int) (*Client, error) {
	n := len(c.peers)
	if id <= n+1 {
		return nil, fmt.Errorf("%w: client id %d must exceed %d (peers 1..%d, then the cluster's own client)", ErrPeerID, id, n+1, n)
	}
	return newClient(core.ProcessID(id), n, c.mesh.Endpoint(core.ProcessID(id)), c.client.opts), nil
}

// Commit runs one atomic commit instance across all participants: every
// resource is asked to Prepare (its vote), the configured protocol decides,
// and each participant fires its Commit/Abort callback on its own decision.
// It is Submit's future, waited for: it returns the decision (true =
// committed) once the coordinator has applied it; the other participants
// apply theirs on their own.
//
// The returned error reports infrastructure problems (context expiry, or
// the client's 128 U bound, before the coordinator's answer; a closed
// cluster; a txID that is already in flight or has the allocated IDs' form); a unanimous abort is a normal
// outcome, not an error. A nil ctx defaults to context.Background().
func (c *Cluster) Commit(ctx context.Context, txID string) (bool, error) {
	t := c.client.Submit(ctx, txID)
	<-t.Done()
	return t.Committed(), t.Err()
}

// Submit sends one transaction and returns a future immediately: the
// cluster's client sends it to a coordinator chosen round-robin across the
// peers (see Client.Submit). Every submission runs at once, each a full
// protocol instance routed by its txID; nothing bounds how many, so a
// caller that wants a bound keeps that many outstanding. Resources must be
// safe for concurrent use once transactions are pipelined.
func (c *Cluster) Submit(ctx context.Context, txID string) *Txn {
	return c.client.Submit(ctx, txID)
}

// CommitMany submits every txID at once (allocating IDs for empty strings)
// and waits for all of them (see Client.CommitMany); a caller that wants
// fewer in flight chunks its IDs.
func (c *Cluster) CommitMany(ctx context.Context, txIDs []string) ([]bool, error) {
	return c.client.CommitMany(ctx, txIDs)
}

// Close shuts the cluster down: its client's pending futures resolve with an
// error, and every peer closes.
func (c *Cluster) Close() {
	c.client.Close()
	for _, p := range c.peers {
		p.Close()
	}
}
