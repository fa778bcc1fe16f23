// Package commit is the public API of this repository: non-blocking atomic
// commit for distributed transactions, implementing the protocols of
// Guerraoui & Wang, "How Fast can a Distributed Transaction Commit?"
// (PODS 2017) — most notably INBAC, the paper's delay-optimal indulgent
// commit protocol, alongside 2PC, 3PC, PaxosCommit, Faster PaxosCommit and
// the paper's whole family of optimal NBAC protocols.
//
// Three ways to use it:
//
//   - Peer: one participant — it votes via its Resource, runs the
//     protocol instance, and applies the decision, which retires the
//     transaction to an outcome cache — in its own address space over TCP
//     (NewPeer): a real deployment shape,
//     which a Client can drive without being a participant.
//   - Cluster: n of those Peers in one address space over an in-memory
//     network, plus one Client that Commit, Submit and CommitMany drive
//     them through — the quickest way to commit transactions or to
//     demonstrate protocol behavior under injected failures. More Clients
//     attached with Cluster.NewClient drive those Peers as they would over
//     TCP.
//   - Simulate: deterministic executions on the discrete-event simulator
//     with exact message/delay measurements — the paper's complexity
//     tables live here.
//
// Pick the protocol by name; Protocols lists everything available. INBAC is
// the default: it decides in two message delays like 2PC, but stays safe
// AND live under crashes and network failures (given a correct majority),
// which 2PC does not.
package commit

import (
	"fmt"
	"time"

	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/protocols"
)

// Protocol selects a commit protocol by its registry name.
type Protocol string

// The available protocols. See DESIGN.md for each protocol's guarantees
// (its (crash-failure, network-failure) property cell from the paper).
const (
	// INBAC is the paper's contribution: indulgent (solves NBAC under
	// crashes AND network failures), 2 message delays, 2fn messages.
	INBAC Protocol = "inbac"
	// TwoPC is classic two-phase commit: 2 delays, 2n-2 messages, blocking
	// on coordinator failure.
	TwoPC Protocol = "2pc"
	// ThreePC is Skeen's three-phase commit with a rotating termination
	// protocol: non-blocking under crashes, 4 delays, 4n-4 messages.
	ThreePC Protocol = "3pc"
	// PaxosCommit is Gray & Lamport's commit-over-Paxos: indulgent,
	// 3 delays, nf+2n-2 messages.
	PaxosCommit Protocol = "paxoscommit"
	// FasterPaxosCommit removes one delay for 2fn+2n-2f-2 messages.
	FasterPaxosCommit Protocol = "fasterpaxoscommit"
	// OneNBAC decides in ONE message delay (optimal for synchronous NBAC).
	OneNBAC Protocol = "1nbac"
	// ChainNBAC uses the minimal n-1+f messages for synchronous NBAC.
	ChainNBAC Protocol = "chainnbac"
	// FullNBAC is the message-optimal indulgent protocol (2n-2+f).
	FullNBAC Protocol = "fullnbac"
	// ZeroNBAC exchanges ZERO messages in the failure-free all-yes case
	// (it gives up validity under failures).
	ZeroNBAC Protocol = "0nbac"
)

// Protocols returns the names of every registered protocol.
func Protocols() []string {
	all := protocols.All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return names
}

// Message is the payload type that crosses the transports — an alias of the
// internal core.Message so layers above (kv footprints, custom hosted
// resources) can speak it without importing internal packages.
type Message = core.Message

// Options configures a Cluster or Peer.
type Options struct {
	// Protocol defaults to INBAC.
	Protocol Protocol
	// F is the number of tolerated crashes (1 <= F <= n-1); defaults to 1.
	// Protocols that fall back on consensus additionally need a correct
	// majority to terminate under failures.
	F int
	// Timeout is the unit U: the assumed upper bound on one message delay.
	// Defaults to 50ms. Size it a comfortable multiple of the real network
	// round trip; indulgent protocols (INBAC, PaxosCommit, FullNBAC) stay
	// correct even when the bound is violated.
	Timeout time.Duration
	// MaxInFlight is ignored: a Client sends every submission at once, and
	// a caller that wants a bound keeps that many outstanding.
	//
	// Deprecated: it bounds nothing, and stays only so that callers which
	// still set it compile.
	MaxInFlight int
	// Net emulates a geo-distributed network: per-region one-way delays,
	// jitter, and partition windows (see live.NamedProfile for the built-in
	// profiles). It shapes the in-memory mesh of a Cluster and the outbound
	// TCP links of a Peer or Client. When set, Timeout defaults to
	// Net.SuggestedTimeout() instead of 50ms, so the protocol's U tracks
	// the emulated network.
	Net *live.NetProfile
}

func (o Options) withDefaults(n int) (Options, error) {
	if o.Protocol == "" {
		o.Protocol = INBAC
	}
	if o.F == 0 {
		o.F = 1
	}
	if o.Timeout == 0 {
		if o.Net != nil {
			o.Timeout = o.Net.SuggestedTimeout()
		} else {
			o.Timeout = 50 * time.Millisecond
		}
	}
	if n < 2 {
		return o, fmt.Errorf("commit: need at least 2 participants, got %d", n)
	}
	if o.F < 1 || o.F > n-1 {
		return o, fmt.Errorf("commit: F must be in [1, n-1], got F=%d n=%d", o.F, n)
	}
	if _, ok := protocols.ByName(string(o.Protocol)); !ok {
		return o, fmt.Errorf("commit: unknown protocol %q (available: %v)", o.Protocol, Protocols())
	}
	return o, nil
}

// factory builds the per-process module factory for the chosen protocol.
func (o Options) factory() func(core.ProcessID) core.Module {
	info, _ := protocols.ByName(string(o.Protocol))
	return info.New()
}

// ticks converts the Timeout into the live runtime's U (milliseconds).
func (o Options) ticks() core.Ticks {
	t := core.Ticks(o.Timeout / live.TickDuration)
	if t < 1 {
		t = 1
	}
	return t
}

// Resource is the participant-side hook: the local outcome of the
// transaction's execution (the paper's "vote") and the final callbacks.
//
// All three must return promptly. Prepare runs on the peer's delivery path,
// on both transports — a TCP connection's read loop, a Cluster peer's mesh
// inbox — so the deliveries behind it wait for it. Commit and Abort run one
// at a time, in the order the peer decided, on the peer's apply worker, so
// its later decisions wait for them. Different peers' callbacks run
// concurrently.
type Resource interface {
	// Prepare reports whether the transaction can commit locally ("yes"
	// vote). A false vote guarantees a global abort.
	Prepare(txID string) bool
	// Commit applies the transaction; called exactly once iff the global
	// decision is commit.
	Commit(txID string)
	// Abort discards the transaction; called exactly once iff the global
	// decision is abort.
	Abort(txID string)
}

// HostedResource is a Resource a Peer can expose to remote clients: Stage
// receives a transaction's footprint (what the resource must validate at
// Prepare and apply at Commit), and Query answers one-shot reads outside
// any transaction. A kv shard is the canonical implementation; any resource
// wanting remote clients implements it the same way. A peer hosting one
// never calls Prepare before the transaction was announced to it, since the
// footprint arrives on the announcement (see the ordering rule on Peer).
//
// The contract: Stage is called only by the peer that claimed the
// transaction's run, immediately before Prepare and on the same goroutine,
// so a stage is resolved by the Commit or Abort callback unless the peer
// closes first. Nothing else drops one: there is no stage timeout and no
// client unstage.
type HostedResource interface {
	Resource
	// Stage hands the resource txID's footprint right before Prepare. An
	// error refuses it: the peer votes abort without calling Prepare.
	Stage(txID string, m Message) error
	// Query answers a read-only request outside any transaction. An answer
	// that is a Hop goes on to the process it names instead of back to the
	// sender; one that is a Deferred is not ready yet, and the peer waits for
	// it without blocking the delivery path.
	Query(m Message) (Message, error)
}

// Deferred is a Query answer that is not ready yet: a kv read that met a
// prepared writer's intent waits for that writer's decision. The peer hands
// Await the function that does with the real answer what it does with a ready
// one — reply to the sender, or pass a Hop on — and Await calls it once, on
// whatever goroutine has the answer (for a kv shard, the apply worker), or
// never, which the asking client sees as its query's deadline. A waiting
// answer costs the peer no goroutine, timer or context; the answer handed
// over may itself be another Deferred, which is awaited in turn.
type Deferred interface {
	Message
	Await(answer func(Message))
}

// Hop is a Query answer that names the process it goes to next: another
// peer, which gets it as a new query, or anyone else, which gets it as the
// reply to the query it continues — so a hosted resource can pass one
// request along a chain of peers, and no peer keeps state or waits for it.
// The client's reply is filed under the peer it asked, so a chain must end
// there. An answer naming the peer that holds it, or ID 0, is dropped.
type Hop interface {
	Message
	Next() core.ProcessID
}

// ResourceFunc adapts plain functions to Resource. Nil fields default to
// voting yes and ignoring the callbacks.
type ResourceFunc struct {
	PrepareFn func(txID string) bool
	CommitFn  func(txID string)
	AbortFn   func(txID string)
}

// Prepare implements Resource.
func (r ResourceFunc) Prepare(txID string) bool {
	if r.PrepareFn == nil {
		return true
	}
	return r.PrepareFn(txID)
}

// Commit implements Resource.
func (r ResourceFunc) Commit(txID string) {
	if r.CommitFn != nil {
		r.CommitFn(txID)
	}
}

// Abort implements Resource.
func (r ResourceFunc) Abort(txID string) {
	if r.AbortFn != nil {
		r.AbortFn(txID)
	}
}

// init registers every protocol message type in the live runtime's wire
// type-ID registry, so both transports (TCP and the in-memory mesh, which
// round-trips the same codec) can decode them. The codec round-trip tests
// iterate that registry — a new message type only needs to be listed in its
// protocol's registry entry (protocols.Info.Wires).
func init() {
	for _, m := range consensus.Wires {
		live.RegisterWire(m)
	}
	for _, p := range protocols.All() {
		for _, m := range p.Wires {
			live.RegisterWire(m)
		}
	}
}
