// Package paxoscommit implements PaxosCommit and Faster PaxosCommit (Gray &
// Lamport, "Consensus on Transaction Commit", 2006), the indulgent baselines
// of the paper's Table 5.
//
// Every process is a resource manager (RM) whose vote is decided by its own
// single-decree Paxos instance; the transaction commits iff every instance
// decides a commit vote. Following Gray & Lamport's optimization and the
// paper's counting conventions (footnote 13: spontaneous start, co-located
// acceptors, free self-messages), the fast path uses the f+1 acceptors
// P1..Pf+1 out of the full acceptor set P1..P(min(2f+1,n)) — f+1 is a
// majority of the full set, so a fast decision is a chosen Paxos value and
// recovery can never contradict it.
//
// Nice executions:
//
//	PaxosCommit (3 delays, nf+2n-2 messages):
//	  t=0  every RM sends its vote (a ballot-0 phase-2a) to P1..Pf+1
//	  t=U  each fast acceptor sends ONE bundled phase-2b with all n votes
//	       to the leader P1
//	  t=2U the leader sees f+1 complete bundles, decides, broadcasts the
//	       outcome; everybody else decides at t=3U.
//
//	Faster PaxosCommit (2 delays, 2fn+2n-2f-2 messages): identical except
//	  the fast acceptors broadcast their bundle to everyone, and every
//	  process decides locally at t=2U.
//
// In any other execution, leaders rotate on growing timeouts and run full
// Paxos (prepare/promise/accept/accepted) per undecided instance over the
// full acceptor set, proposing Abort for instances whose RM never voted.
// Termination under failures needs a correct majority of the acceptor set.
package paxoscommit

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Mode selects the variant.
type Mode int

// The two variants.
const (
	Classic Mode = iota // PaxosCommit: bundles to the leader, 3 delays
	Faster              // Faster PaxosCommit: bundles to everyone, 2 delays
)

const unknown uint8 = 255

// Message types.
type (
	// MsgVote2a is RM Inst's spontaneous ballot-0 phase-2a carrying its vote.
	MsgVote2a struct {
		Inst int
		V    core.Value
	}
	// MsgBundle is a fast acceptor's bundled phase-2b: Views[k] is the vote
	// of RM k+1 accepted at ballot 0 (unknown = none).
	MsgBundle struct{ Views []uint8 }
	// MsgOutcome announces the transaction outcome.
	MsgOutcome struct{ V core.Value }
	// MsgPrepareI is phase 1a of recovery for one instance.
	MsgPrepareI struct{ Inst, B int }
	// MsgPromiseI is phase 1b: AccB = -1 when nothing was accepted.
	MsgPromiseI struct {
		Inst, B, AccB int
		AccV          core.Value
	}
	// MsgAcceptI is phase 2a of recovery.
	MsgAcceptI struct {
		Inst, B int
		V       core.Value
	}
	// MsgAcceptedI is phase 2b of recovery.
	MsgAcceptedI struct {
		Inst, B int
		V       core.Value
	}
)

func (MsgVote2a) Kind() string    { return "p2aVote" }
func (MsgBundle) Kind() string    { return "p2bBundle" }
func (MsgOutcome) Kind() string   { return "OUTCOME" }
func (MsgPrepareI) Kind() string  { return "p1a" }
func (MsgPromiseI) Kind() string  { return "p1b" }
func (MsgAcceptI) Kind() string   { return "p2a" }
func (MsgAcceptedI) Kind() string { return "p2b" }

// Wire IDs (paxoscommit block 36..42; see internal/live's registry).
const (
	wireIDVote2a uint16 = 36 + iota
	wireIDBundle
	wireIDOutcome
	wireIDPrepareI
	wireIDPromiseI
	wireIDAcceptI
	wireIDAcceptedI
)

func (MsgVote2a) WireID() uint16    { return wireIDVote2a }
func (MsgBundle) WireID() uint16    { return wireIDBundle }
func (MsgOutcome) WireID() uint16   { return wireIDOutcome }
func (MsgPrepareI) WireID() uint16  { return wireIDPrepareI }
func (MsgPromiseI) WireID() uint16  { return wireIDPromiseI }
func (MsgAcceptI) WireID() uint16   { return wireIDAcceptI }
func (MsgAcceptedI) WireID() uint16 { return wireIDAcceptedI }

// Instance numbers are uvarints; ballots are zigzag varints (-1 = "none").

func (m MsgVote2a) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Inst))
	return wire.AppendUvarint(b, uint64(m.V))
}

func (MsgVote2a) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgVote2a{Inst: int(d.Uvarint()), V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgBundle) MarshalWire(b []byte) []byte { return wire.AppendBytes(b, m.Views) }
func (MsgBundle) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgBundle{Views: d.Bytes()}, d.Err()
}

func (m MsgOutcome) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgOutcome) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgOutcome{V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgPrepareI) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Inst))
	return wire.AppendInt(b, m.B)
}

func (MsgPrepareI) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgPrepareI{Inst: int(d.Uvarint()), B: d.Int()}, d.Err()
}

func (m MsgPromiseI) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Inst))
	b = wire.AppendInt(b, m.B)
	b = wire.AppendInt(b, m.AccB)
	return wire.AppendUvarint(b, uint64(m.AccV))
}

func (MsgPromiseI) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	m := MsgPromiseI{Inst: int(d.Uvarint()), B: d.Int(), AccB: d.Int(), AccV: core.Value(d.Uvarint())}
	return m, d.Err()
}

func (m MsgAcceptI) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Inst))
	b = wire.AppendInt(b, m.B)
	return wire.AppendUvarint(b, uint64(m.V))
}

func (MsgAcceptI) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgAcceptI{Inst: int(d.Uvarint()), B: d.Int(), V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgAcceptedI) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Inst))
	b = wire.AppendInt(b, m.B)
	return wire.AppendUvarint(b, uint64(m.V))
}

func (MsgAcceptedI) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgAcceptedI{Inst: int(d.Uvarint()), B: d.Int(), V: core.Value(d.Uvarint())}, d.Err()
}

// Timer tags.
const (
	tagBundle  = -1 // fast acceptor bundle time (U)
	tagOutcome = -2 // fast decision time (2U)
	// Non-negative tags are recovery round deadlines.
)

// Options configures the protocol.
type Options struct {
	Mode Mode
}

// instState is one acceptor's Paxos state for one instance.
type instState struct {
	promised int
	accB     int
	accV     core.Value
}

// leadInst is a recovery leader's per-instance tally for its current ballot.
type leadInst struct {
	promisers core.ProcSet // who promised
	bestB     int          // highest accepted ballot among the promises, -1 when none
	value     core.Value   // that ballot's value (Abort when none), proposed in phase 2
	accepted  core.ProcSet // who accepted value
	inPhase2  bool
}

// PaxosCommit is one process's instance.
type PaxosCommit struct {
	env  core.Env
	opts Options

	vote    core.Value
	decided bool

	// Acceptor state, indexed by instance 1..n.
	inst []instState

	// Bundle collection (leader in Classic, everyone in Faster): who sent a
	// bundle with all n votes, and the AND of those votes.
	complete    core.ProcSet
	fastOutcome core.Value

	// Recovery.
	round      int
	leadBallot int
	leading    map[int]*leadInst // per instance
	resolved   core.VoteSet      // instance k's chosen vote, filed under Pk
}

// New returns a PaxosCommit factory.
func New(opts Options) func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &PaxosCommit{opts: opts} }
}

// Init implements core.Module.
func (p *PaxosCommit) Init(env core.Env) {
	p.env = env
	p.inst = make([]instState, env.N()+1)
	for k := range p.inst {
		p.inst[k] = instState{promised: -1, accB: -1}
	}
	p.complete = core.NewProcSet(env.N())
	p.fastOutcome = core.Commit
	p.leadBallot = -1
	p.resolved = core.NewVoteSet(env.N())
}

func (p *PaxosCommit) n() int { return p.env.N() }
func (p *PaxosCommit) f() int { return p.env.F() }

// fastAcceptors is f+1 (a majority of the full acceptor set).
func (p *PaxosCommit) numFast() int { return min(p.f()+1, p.n()) }

// numFull is the full acceptor set size, 2f+1 co-located on P1..P(2f+1)
// (clamped to n; quorum intersection still holds, see package comment).
func (p *PaxosCommit) numFull() int { return min(2*p.f()+1, p.n()) }

func (p *PaxosCommit) majority() int { return p.numFull()/2 + 1 }

func (p *PaxosCommit) isFast() bool { return int(p.env.ID()) <= p.numFast() }
func (p *PaxosCommit) isFull() bool { return int(p.env.ID()) <= p.numFull() }

// leader of recovery round r; ballot b = r+1 belongs to leader(r).
func (p *PaxosCommit) leader(r int) core.ProcessID { return core.ProcessID(r%p.n() + 1) }

func (p *PaxosCommit) roundDeadline(r int) core.Ticks {
	return core.Ticks(8+4*r) * p.env.U()
}

// Propose implements core.Module.
func (p *PaxosCommit) Propose(v core.Value) {
	p.vote = v
	core.SendRange(p.env, 1, p.numFast(), MsgVote2a{Inst: int(p.env.ID()), V: v})
	if p.isFast() {
		p.env.SetTimerAt(p.env.U(), tagBundle)
	}
	if p.opts.Mode == Faster || p.env.ID() == 1 {
		p.env.SetTimerAt(2*p.env.U(), tagOutcome)
	}
	// Arm the recovery round clock.
	p.env.SetTimerAt(p.roundDeadline(0), 0)
}

// hasInst reports whether k, an instance number off the wire, names one of
// the n instances. A peer configured with another n, or a corrupt frame that
// still parses, can send any number; such a message is dropped before it
// indexes anything.
func (p *PaxosCommit) hasInst(k int) bool { return k >= 1 && k <= p.n() }

// Deliver implements core.Module.
func (p *PaxosCommit) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgVote2a:
		if !p.hasInst(msg.Inst) {
			return
		}
		st := &p.inst[msg.Inst]
		if st.promised <= 0 && st.accB < 0 {
			st.promised = 0
			st.accB = 0
			st.accV = msg.V
		}
	case MsgBundle:
		p.onBundle(from, msg.Views)
	case MsgOutcome:
		p.decideOutcome(msg.V)
	case MsgPrepareI:
		if p.hasInst(msg.Inst) {
			p.onPrepare(from, msg)
		}
	case MsgPromiseI:
		if p.hasInst(msg.Inst) {
			p.onPromise(from, msg)
		}
	case MsgAcceptI:
		if p.hasInst(msg.Inst) {
			p.onAccept(from, msg)
		}
	case MsgAcceptedI:
		if p.hasInst(msg.Inst) {
			p.onAccepted(from, msg)
		}
	}
}

// onBundle counts a bundle that holds a vote for every RM. One with unknown
// entries does not count; one that is not n entries long (empty included) is
// malformed and must not count as complete either.
func (p *PaxosCommit) onBundle(from core.ProcessID, views []uint8) {
	if len(views) != p.n() {
		return
	}
	all := core.Commit
	for _, b := range views {
		if b == unknown {
			return
		}
		all = all.And(core.Value(b))
	}
	p.complete.Add(from)
	p.fastOutcome = p.fastOutcome.And(all)
}

// Timeout implements core.Module.
func (p *PaxosCommit) Timeout(tag int) {
	switch {
	case tag == tagBundle:
		p.sendBundle()
	case tag == tagOutcome:
		p.tryFastDecision()
	case tag >= 0:
		if p.decided || tag != p.round {
			return
		}
		p.round++
		p.env.SetTimerAt(p.env.Now()+p.roundDeadline(p.round), p.round)
		if p.leader(p.round) == p.env.ID() {
			p.startRecovery(p.round + 1)
		}
	}
}

// sendBundle is the fast acceptor's bundled phase-2b at time U.
func (p *PaxosCommit) sendBundle() {
	views := make([]uint8, p.n())
	for k := 1; k <= p.n(); k++ {
		views[k-1] = unknown
		if p.inst[k].accB == 0 {
			views[k-1] = uint8(p.inst[k].accV)
		}
	}
	if p.opts.Mode == Faster {
		core.SendAll(p.env, MsgBundle{Views: views})
	} else {
		p.env.Send(1, MsgBundle{Views: views})
	}
}

// tryFastDecision checks for f+1 complete bundles at time 2U.
func (p *PaxosCommit) tryFastDecision() {
	if p.decided {
		return
	}
	if p.complete.Count() >= p.numFast() {
		if p.opts.Mode == Classic {
			// The leader announces; everyone else decides at 3U.
			core.SendRange(p.env, 2, p.n(), MsgOutcome{V: p.fastOutcome})
		}
		p.decideOutcome(p.fastOutcome)
		return
	}
	// Fast path failed. The round-0 leader escalates immediately rather
	// than waiting for its round deadline.
	if p.env.ID() == p.leader(0) {
		p.startRecovery(p.round + 1)
	}
}

// startRecovery runs phase 1 for every instance at the given ballot.
func (p *PaxosCommit) startRecovery(ballot int) {
	if p.decided {
		return
	}
	p.leadBallot = ballot
	p.leading = make(map[int]*leadInst)
	for k := 1; k <= p.n(); k++ {
		if p.resolved.Has(core.ProcessID(k)) {
			continue
		}
		p.leading[k] = &leadInst{
			promisers: core.NewProcSet(p.n()),
			bestB:     -1,
			accepted:  core.NewProcSet(p.n()),
		}
		core.SendRange(p.env, 1, p.numFull(), MsgPrepareI{Inst: k, B: ballot})
	}
	p.maybeFinishRecovery()
}

func (p *PaxosCommit) onPrepare(from core.ProcessID, m MsgPrepareI) {
	if !p.isFull() {
		return
	}
	st := &p.inst[m.Inst]
	if m.B <= st.promised {
		return
	}
	st.promised = m.B
	p.env.Send(from, MsgPromiseI{Inst: m.Inst, B: m.B, AccB: st.accB, AccV: st.accV})
}

func (p *PaxosCommit) onPromise(from core.ProcessID, m MsgPromiseI) {
	if m.B != p.leadBallot {
		return
	}
	li, ok := p.leading[m.Inst]
	if !ok || li.inPhase2 {
		return
	}
	// Adopt the accepted value of the highest ballot; a silent instance
	// (its RM never voted) is resolved Abort — a failure occurred, so
	// validity allows it.
	li.promisers.Add(from)
	if m.AccB > li.bestB {
		li.bestB, li.value = m.AccB, m.AccV
	}
	if li.promisers.Count() < p.majority() {
		return
	}
	li.inPhase2 = true
	core.SendRange(p.env, 1, p.numFull(), MsgAcceptI{Inst: m.Inst, B: m.B, V: li.value})
}

func (p *PaxosCommit) onAccept(from core.ProcessID, m MsgAcceptI) {
	if !p.isFull() {
		return
	}
	st := &p.inst[m.Inst]
	if m.B < st.promised {
		return
	}
	st.promised = m.B
	st.accB = m.B
	st.accV = m.V
	p.env.Send(p.leader(m.B-1), MsgAcceptedI{Inst: m.Inst, B: m.B, V: m.V})
}

func (p *PaxosCommit) onAccepted(from core.ProcessID, m MsgAcceptedI) {
	if m.B != p.leadBallot {
		return
	}
	li, ok := p.leading[m.Inst]
	if !ok || !li.inPhase2 {
		return
	}
	li.accepted.Add(from)
	if li.accepted.Count() < p.majority() {
		return
	}
	p.resolved.Put(core.ProcessID(m.Inst), li.value)
	delete(p.leading, m.Inst)
	p.maybeFinishRecovery()
}

// maybeFinishRecovery announces the outcome once every instance is resolved.
func (p *PaxosCommit) maybeFinishRecovery() {
	if p.decided || !p.resolved.Full() {
		return
	}
	outcome := p.resolved.And()
	core.SendOthers(p.env, MsgOutcome{V: outcome})
	p.decideOutcome(outcome)
}

// decideOutcome records the decision. A process that never hears an outcome
// (its announcer crashed mid-broadcast) recovers it through the rotating
// leaders, which re-resolve every instance to the same chosen values.
func (p *PaxosCommit) decideOutcome(v core.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.env.Decide(v)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
