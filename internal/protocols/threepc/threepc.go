// Package threepc implements three-phase commit (Skeen 1981), the classic
// non-blocking answer to 2PC's blocking coordinator, discussed in the
// paper's related work (section 6.2).
//
// The coordinator P1 inserts a PRECOMMIT round between vote collection and
// COMMIT, so that no process can be "one message away" from both commit and
// abort; undecided processes run a rotating-coordinator termination protocol
// that commits iff anybody reached the precommitted state.
//
// With spontaneous starts (votes pushed at t=0, footnote-13 convention) a
// nice execution costs 4 message delays and 4n-4 messages — strictly worse
// than both 2PC (2 / 2n-2) and INBAC (2 / 2fn), which is the paper's point:
// buying non-blocking termination with an extra phase is expensive, and the
// lower bounds show what optimal actually looks like.
//
// Contract: solves NBAC in every crash-failure execution. In network-failure
// executions validity and termination hold but agreement can break (a slow
// coordinator drives a commit while an election concludes abort) — the
// well-known 3PC weakness the paper cites ([19], [21]).
package threepc

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types.
type (
	// MsgVote carries a participant's vote to the coordinator.
	MsgVote struct{ V core.Value }
	// MsgPrecommit moves participants to the precommitted state.
	MsgPrecommit struct{}
	// MsgAck acknowledges a precommit.
	MsgAck struct{}
	// MsgOutcome carries COMMIT or ABORT (from the coordinator or from an
	// elected termination coordinator).
	MsgOutcome struct{ V core.Value }
	// MsgState reports a process's state to the elected coordinator of an
	// election round.
	MsgState struct {
		Round        int
		Precommitted bool
	}
)

func (MsgVote) Kind() string      { return "VOTE" }
func (MsgPrecommit) Kind() string { return "PRE" }
func (MsgAck) Kind() string       { return "ACK" }
func (MsgOutcome) Kind() string   { return "OUTCOME" }
func (MsgState) Kind() string     { return "STATE" }

// Wire IDs (threepc block 28..32; see internal/live's registry).
const (
	wireIDVote uint16 = 28 + iota
	wireIDPrecommit
	wireIDAck
	wireIDOutcome
	wireIDState
)

func (MsgVote) WireID() uint16      { return wireIDVote }
func (MsgPrecommit) WireID() uint16 { return wireIDPrecommit }
func (MsgAck) WireID() uint16       { return wireIDAck }
func (MsgOutcome) WireID() uint16   { return wireIDOutcome }
func (MsgState) WireID() uint16     { return wireIDState }

func (m MsgVote) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgVote) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgVote{V: core.Value(d.Uvarint())}, d.Err()
}

func (MsgPrecommit) MarshalWire(b []byte) []byte { return b }
func (MsgPrecommit) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgPrecommit{}, d.Err()
}

func (MsgAck) MarshalWire(b []byte) []byte { return b }
func (MsgAck) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgAck{}, d.Err()
}

func (m MsgOutcome) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgOutcome) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgOutcome{V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgState) MarshalWire(b []byte) []byte {
	b = wire.AppendInt(b, m.Round)
	return wire.AppendBool(b, m.Precommitted)
}

func (MsgState) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgState{Round: d.Int(), Precommitted: d.Bool()}, d.Err()
}

// Timer tags. Election rounds use tag = j for the round start and
// tag = resolveBase + j for the elected coordinator's resolution tick.
const (
	tagVotes  = -1 // coordinator: vote deadline (U)
	tagCommit = -2 // coordinator: ack deadline (3U)
	tagWait   = -3 // participant: precommit deadline (2U)
	tagFinal  = -4 // precommitted participant: commit deadline (4U)

	resolveBase = 1 << 20
)

// Coordinator is the distinguished process P1.
const Coordinator core.ProcessID = 1

// ThreePC is one process's instance.
type ThreePC struct {
	env core.Env

	votes        core.VoteSet // the coordinator's collection
	precommitted bool
	decided      bool
	decision     core.Value

	nextRound int
	witnessed map[int]bool // election round -> some reporter was precommitted
}

// New returns a 3PC factory.
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &ThreePC{} }
}

// Init implements core.Module.
func (p *ThreePC) Init(env core.Env) {
	p.env = env
	p.votes = core.NewVoteSet(env.N())
	p.witnessed = make(map[int]bool)
}

func (p *ThreePC) n() int { return p.env.N() }

func (p *ThreePC) isCoord() bool { return p.env.ID() == Coordinator }

// elected returns the termination coordinator of election round j,
// rotating from P2 so the (possibly crashed) original coordinator is tried
// last.
func (p *ThreePC) elected(j int) core.ProcessID {
	return core.ProcessID((j+1)%p.n() + 1)
}

func (p *ThreePC) roundStart(j int) core.Ticks { return core.Ticks(4+3*j) * p.env.U() }

// Propose implements core.Module.
func (p *ThreePC) Propose(v core.Value) {
	p.env.Send(Coordinator, MsgVote{V: v})
	if p.isCoord() {
		p.env.SetTimerAt(p.env.U(), tagVotes)
	} else {
		p.env.SetTimerAt(2*p.env.U(), tagWait)
	}
}

// Deliver implements core.Module.
func (p *ThreePC) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgVote:
		if p.isCoord() {
			p.votes.Put(from, msg.V)
		}
	case MsgPrecommit:
		if !p.decided && !p.precommitted {
			p.precommitted = true
			p.env.Send(Coordinator, MsgAck{})
			p.env.SetTimerAt(4*p.env.U(), tagFinal)
		}
	case MsgAck:
		// Collected implicitly: the coordinator commits at its ack deadline.
		// A missing ack means a crashed participant, which must not block
		// the commit — every correct participant is precommitted by then.
	case MsgOutcome:
		p.decide(msg.V)
	case MsgState:
		p.onState(from, msg)
	}
}

// Timeout implements core.Module.
func (p *ThreePC) Timeout(tag int) {
	switch {
	case tag == tagVotes:
		p.coordVotesDeadline()
	case tag == tagCommit:
		if !p.decided {
			p.broadcastOutcome(core.Commit)
			p.decide(core.Commit)
		}
	case tag == tagWait:
		// Neither precommit nor abort after 2U: the coordinator failed (or
		// is late); join the termination protocol.
		if !p.decided && !p.precommitted {
			p.startRound(0)
		}
	case tag == tagFinal:
		if !p.decided {
			p.startRound(0)
		}
	case tag >= resolveBase:
		p.resolveRound(tag - resolveBase)
	case tag >= 0:
		p.runRound(tag)
	}
}

func (p *ThreePC) coordVotesDeadline() {
	if !p.votes.Full() || p.votes.And() == core.Abort {
		p.broadcastOutcome(core.Abort)
		p.decide(core.Abort)
		return
	}
	p.precommitted = true
	core.SendRange(p.env, 2, p.n(), MsgPrecommit{})
	p.env.SetTimerAt(3*p.env.U(), tagCommit)
}

func (p *ThreePC) broadcastOutcome(v core.Value) { core.SendOthers(p.env, MsgOutcome{V: v}) }

// startRound schedules participation from election round j on.
func (p *ThreePC) startRound(j int) {
	if p.nextRound > j {
		return
	}
	p.nextRound = j + 1
	p.env.SetTimerAt(p.roundStart(j), j)
}

// runRound begins election round j: every undecided process reports its
// state to the round's elected coordinator, which resolves one delay later.
func (p *ThreePC) runRound(j int) {
	if p.decided {
		return
	}
	p.env.Send(p.elected(j), MsgState{Round: j, Precommitted: p.precommitted})
	if p.elected(j) == p.env.ID() {
		p.env.SetTimerAt(p.roundStart(j)+p.env.U(), resolveBase+j)
	}
	// Arm the next round in case this round's coordinator is crashed.
	p.startRound(j + 1)
}

func (p *ThreePC) onState(from core.ProcessID, m MsgState) {
	if p.decided {
		// A decided elected coordinator repeats its decision to whoever
		// still asks.
		p.env.Send(from, MsgOutcome{V: p.decision})
		return
	}
	if p.elected(m.Round) != p.env.ID() {
		return
	}
	if m.Precommitted {
		p.witnessed[m.Round] = true
	}
}

// resolveRound is the elected coordinator's decision point for round j:
// commit iff any reporter (or itself) is precommitted. Precommitted states
// are frozen before elections begin (only the original coordinator creates
// them, within 2U), so every election that resolves reaches the same
// outcome; see the package comment for the crash-case analysis.
func (p *ThreePC) resolveRound(j int) {
	if p.decided {
		return
	}
	out := core.Abort
	if p.precommitted || p.witnessed[j] {
		out = core.Commit
	}
	p.broadcastOutcome(out)
	p.decide(out)
}

func (p *ThreePC) decide(v core.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.decision = v
	p.env.Decide(v)
}
