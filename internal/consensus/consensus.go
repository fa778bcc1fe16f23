// Package consensus implements the IndulgentUniformConsensus module the
// paper's protocols use as a black box (Definition 5): uniform agreement,
// validity ("a decided value was proposed"), and termination in a
// network-failure (eventually synchronous) system provided a majority of
// processes is correct.
//
// The implementation is a single-decree Paxos (synod) with a rotating
// coordinator: ballot b is led by P((b mod n)+1); processes advance ballots
// on growing timeouts, so after the system stabilizes the first correct
// leader that owns a long-enough ballot drives a decision. Safety never
// depends on timing (the protocol is indulgent in the sense of the paper's
// footnote 1).
//
// The paper stresses that INBAC's correctness and best-case complexity are
// independent of the consensus algorithm; accordingly this module is only
// ever built in executions with failures — a parent registers a Lazy holder,
// which builds it on first use — and the experiments assert that nice
// executions exchange zero consensus messages.
package consensus

import (
	"fmt"

	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types. All consensus messages implement core.Message.
type (
	// MsgPrepare is phase 1a: the leader of ballot B solicits promises.
	MsgPrepare struct{ B int }
	// MsgPromise is phase 1b: the acceptor promises ballot B and reports
	// the highest ballot it accepted (AB = -1 when none).
	MsgPromise struct {
		B  int
		AB int
		AV core.Value
	}
	// MsgAccept is phase 2a: the leader of ballot B asks acceptors to
	// accept value V.
	MsgAccept struct {
		B int
		V core.Value
	}
	// MsgAccepted is phase 2b: the acceptor accepted (B, V).
	MsgAccepted struct {
		B int
		V core.Value
	}
	// MsgNack tells a leader its ballot B is stale; Promised is the
	// acceptor's current promise, letting the leader catch up fast.
	MsgNack struct {
		B        int
		Promised int
	}
	// MsgDecided announces the decision; receivers gossip it once so the
	// decision survives a leader crashing mid-broadcast.
	MsgDecided struct{ V core.Value }
)

func (MsgPrepare) Kind() string  { return "c1a" }
func (MsgPromise) Kind() string  { return "c1b" }
func (MsgAccept) Kind() string   { return "c2a" }
func (MsgAccepted) Kind() string { return "c2b" }
func (MsgNack) Kind() string     { return "cNACK" }
func (MsgDecided) Kind() string  { return "cDEC" }

// Wire IDs (consensus block 8..14; see internal/live's registry).
const (
	wireIDPrepare uint16 = 8 + iota
	wireIDPromise
	wireIDAccept
	wireIDAccepted
	wireIDNack
	wireIDDecided
	wireIDFlood
)

// Wires is one prototype of every message type of this package, for the
// commit package to register with the live runtime.
var Wires = []core.Wire{
	MsgPrepare{}, MsgPromise{}, MsgAccept{}, MsgAccepted{}, MsgNack{}, MsgDecided{}, MsgFlood{},
}

func (MsgPrepare) WireID() uint16  { return wireIDPrepare }
func (MsgPromise) WireID() uint16  { return wireIDPromise }
func (MsgAccept) WireID() uint16   { return wireIDAccept }
func (MsgAccepted) WireID() uint16 { return wireIDAccepted }
func (MsgNack) WireID() uint16     { return wireIDNack }
func (MsgDecided) WireID() uint16  { return wireIDDecided }

// Ballots are zigzag varints: -1 ("none yet") is a legal value.

func (m MsgPrepare) MarshalWire(b []byte) []byte { return wire.AppendInt(b, m.B) }
func (MsgPrepare) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgPrepare{B: d.Int()}, d.Err()
}

func (m MsgPromise) MarshalWire(b []byte) []byte {
	b = wire.AppendInt(b, m.B)
	b = wire.AppendInt(b, m.AB)
	return wire.AppendUvarint(b, uint64(m.AV))
}

func (MsgPromise) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	m := MsgPromise{B: d.Int(), AB: d.Int(), AV: core.Value(d.Uvarint())}
	return m, d.Err()
}

func (m MsgAccept) MarshalWire(b []byte) []byte {
	b = wire.AppendInt(b, m.B)
	return wire.AppendUvarint(b, uint64(m.V))
}

func (MsgAccept) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgAccept{B: d.Int(), V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgAccepted) MarshalWire(b []byte) []byte {
	b = wire.AppendInt(b, m.B)
	return wire.AppendUvarint(b, uint64(m.V))
}

func (MsgAccepted) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgAccepted{B: d.Int(), V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgNack) MarshalWire(b []byte) []byte {
	b = wire.AppendInt(b, m.B)
	return wire.AppendInt(b, m.Promised)
}

func (MsgNack) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgNack{B: d.Int(), Promised: d.Int()}, d.Err()
}

func (m MsgDecided) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgDecided) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgDecided{V: core.Value(d.Uvarint())}, d.Err()
}

// Consensus is one process's consensus module. A parent protocol registers
// a Lazy holder via Env.Register, which creates one with New when it is
// first needed.
type Consensus struct {
	env core.Env

	// Proposer state.
	hasProposal bool
	proposal    core.Value

	// Ballot/round state.
	engaged bool
	round   int

	// Acceptor state.
	promised    int
	acceptedB   int
	acceptedVal core.Value

	// Leader state for the ballot this process currently leads.
	leadBallot   int          // -1 when not leading
	promisers    core.ProcSet // who promised leadBallot
	bestB        int          // highest accepted ballot among the promises, -1 when none
	bestV        core.Value   // its value
	acceptedFrom core.ProcSet // who accepted (leadBallot, chosen)
	chosen       core.Value
	inPhase2     bool

	decided bool
}

// New returns a fresh consensus module.
func New() *Consensus {
	return &Consensus{promised: -1, acceptedB: -1, leadBallot: -1}
}

// Init implements core.Module.
func (c *Consensus) Init(env core.Env) { c.env = env }

// Propose implements core.Module: the parent protocol proposes v (paper's
// <iuc, Propose | v>). May be called at any time; at most once.
func (c *Consensus) Propose(v core.Value) {
	if c.hasProposal || c.decided {
		return
	}
	c.hasProposal = true
	c.proposal = v
	c.engage()
	c.tryLead()
}

func (c *Consensus) n() int { return c.env.N() }

func (c *Consensus) majority() int { return c.n()/2 + 1 }

// leader returns the coordinator of ballot b.
func (c *Consensus) leader(b int) core.ProcessID {
	return core.ProcessID(b%c.n() + 1)
}

// roundLen is the deadline of ballot b, growing linearly so that after
// stabilization some correct leader gets enough time for a full round trip.
func (c *Consensus) roundLen(b int) core.Ticks {
	return core.Ticks(8+4*b) * c.env.U()
}

// engage activates the ballot clock. Consensus stays perfectly silent (no
// messages, no timers) until the parent proposes or a consensus message
// arrives; nice executions therefore cost nothing.
func (c *Consensus) engage() {
	if c.engaged {
		return
	}
	c.engaged = true
	c.armRound()
}

func (c *Consensus) armRound() {
	c.env.SetTimerAt(c.env.Now()+c.roundLen(c.round), c.round)
}

// tryLead starts phase 1 of the current ballot if this process coordinates
// it. A leader with neither a proposal of its own nor a recovered accepted
// value still runs phase 1: the promises may reveal an accepted value it
// must drive to decision.
func (c *Consensus) tryLead() {
	if c.decided || c.leader(c.round) != c.env.ID() {
		return
	}
	if c.leadBallot == c.round {
		return // already leading it
	}
	c.leadBallot = c.round
	// Sized here, not at Init: a nice execution never leads a ballot and
	// pays nothing for consensus.
	c.promisers = core.NewProcSet(c.n())
	c.acceptedFrom = core.NewProcSet(c.n())
	c.bestB = -1
	c.inPhase2 = false
	core.SendAll(c.env, MsgPrepare{B: c.leadBallot})
}

// Timeout implements core.Module; the tag is the ballot whose deadline
// fired.
func (c *Consensus) Timeout(tag int) {
	if c.decided || !c.engaged || tag != c.round {
		return
	}
	c.round++
	c.armRound()
	c.tryLead()
}

// Deliver implements core.Module.
func (c *Consensus) Deliver(from core.ProcessID, m core.Message) {
	if c.decided {
		// Late ballots are harmless after deciding; still help stragglers
		// that ask with Prepare by short-circuiting to the decision.
		if _, ok := m.(MsgPrepare); ok {
			c.env.Send(from, MsgDecided{V: c.chosen})
		}
		return
	}
	c.engage()
	switch msg := m.(type) {
	case MsgPrepare:
		c.onPrepare(from, msg)
	case MsgPromise:
		c.onPromise(from, msg)
	case MsgAccept:
		c.onAccept(from, msg)
	case MsgAccepted:
		c.onAccepted(from, msg)
	case MsgNack:
		c.onNack(msg)
	case MsgDecided:
		c.onDecided(msg.V)
	default:
		panic(fmt.Sprintf("consensus: unknown message %T", m))
	}
}

func (c *Consensus) onPrepare(from core.ProcessID, m MsgPrepare) {
	if m.B < c.promised {
		c.env.Send(from, MsgNack{B: m.B, Promised: c.promised})
		return
	}
	c.promised = m.B
	c.env.Send(from, MsgPromise{B: m.B, AB: c.acceptedB, AV: c.acceptedVal})
}

func (c *Consensus) onPromise(from core.ProcessID, m MsgPromise) {
	if m.B != c.leadBallot || c.inPhase2 {
		return
	}
	c.promisers.Add(from)
	if m.AB > c.bestB {
		c.bestB, c.bestV = m.AB, m.AV
	}
	if c.promisers.Count() < c.majority() {
		return
	}
	// Pick the accepted value of the highest ballot, else our own proposal.
	var v core.Value
	switch {
	case c.bestB >= 0:
		v = c.bestV
	case c.hasProposal:
		v = c.proposal
	default:
		return // nothing to propose; let the ballot clock move on
	}
	c.inPhase2 = true
	c.chosen = v
	core.SendAll(c.env, MsgAccept{B: c.leadBallot, V: v})
}

func (c *Consensus) onAccept(from core.ProcessID, m MsgAccept) {
	if m.B < c.promised {
		c.env.Send(from, MsgNack{B: m.B, Promised: c.promised})
		return
	}
	c.promised = m.B
	c.acceptedB = m.B
	c.acceptedVal = m.V
	c.env.Send(c.leader(m.B), MsgAccepted{B: m.B, V: m.V})
}

func (c *Consensus) onAccepted(from core.ProcessID, m MsgAccepted) {
	if m.B != c.leadBallot || !c.inPhase2 {
		return
	}
	c.acceptedFrom.Add(from)
	if c.acceptedFrom.Count() >= c.majority() {
		core.SendAll(c.env, MsgDecided{V: c.chosen})
	}
}

func (c *Consensus) onNack(m MsgNack) {
	if m.Promised > c.round {
		// Fast-forward the ballot clock; the deadline timer of the old
		// round will find tag != round and be ignored.
		c.round = m.Promised
		c.armRound()
		c.tryLead()
	}
}

func (c *Consensus) onDecided(v core.Value) {
	c.decided = true
	c.chosen = v
	// Gossip once so the decision survives a coordinator crash in the
	// middle of its announcement broadcast.
	core.SendOthers(c.env, MsgDecided{V: v})
	c.env.Decide(v)
}
