// Package twopc implements two-phase commit (Gray 1978), the baseline the
// paper compares against in Table 5.
//
// The default variant is the paper's "fair comparison" form (footnote 13):
// every process starts spontaneously, so participants push their votes to
// the coordinator P1 without being asked. In a nice execution it takes 2
// message delays and 2n-2 messages.
//
// 2PC guarantees agreement and validity in every crash-failure and every
// network-failure execution, but it is blocking: if the coordinator crashes
// after the votes arrive, participants wait forever (no termination), which
// is exactly the weakness 3PC, PaxosCommit and INBAC address.
package twopc

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types.
type (
	// MsgVote carries a participant's vote to the coordinator.
	MsgVote struct{ V core.Value }
	// MsgOutcome carries the coordinator's decision to everyone.
	MsgOutcome struct{ V core.Value }
)

func (MsgVote) Kind() string    { return "VOTE" }
func (MsgOutcome) Kind() string { return "OUTCOME" }

// Wire IDs (twopc block 24..26; see internal/live's registry). 24 is retired.
const (
	wireIDVote uint16 = 25 + iota
	wireIDOutcome
)

func (MsgVote) WireID() uint16    { return wireIDVote }
func (MsgOutcome) WireID() uint16 { return wireIDOutcome }

func (m MsgVote) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgVote) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgVote{V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgOutcome) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgOutcome) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgOutcome{V: core.Value(d.Uvarint())}, d.Err()
}

// Coordinator is the distinguished process (the paper's single point of
// failure); P1 throughout this repository.
const Coordinator core.ProcessID = 1

// TwoPC is one process's 2PC instance.
type TwoPC struct {
	env core.Env

	votes   core.VoteSet // the coordinator's collection
	decided bool
	sentOut bool
}

// New returns a 2PC factory for the simulator and live runtime.
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &TwoPC{} }
}

// Init implements core.Module.
func (p *TwoPC) Init(env core.Env) {
	p.env = env
	p.votes = core.NewVoteSet(env.N())
}

func (p *TwoPC) isCoord() bool { return p.env.ID() == Coordinator }

// Propose implements core.Module.
func (p *TwoPC) Propose(v core.Value) {
	// Spontaneous start: push the vote immediately.
	p.env.Send(Coordinator, MsgVote{V: v})
	if p.isCoord() {
		p.env.SetTimerAt(p.env.U(), 0)
	}
}

// Deliver implements core.Module.
func (p *TwoPC) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgVote:
		if p.isCoord() {
			p.votes.Put(from, msg.V)
		}
	case MsgOutcome:
		p.decide(msg.V)
	}
}

// Timeout implements core.Module: the coordinator's vote-collection
// deadline. A missing or delayed vote means some failure occurred, so
// aborting preserves validity.
func (p *TwoPC) Timeout(int) {
	if !p.isCoord() || p.sentOut {
		return
	}
	p.sentOut = true
	out := core.Abort
	if p.votes.Full() {
		out = p.votes.And()
	}
	core.SendOthers(p.env, MsgOutcome{V: out})
	p.decide(out)
}

func (p *TwoPC) decide(v core.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.env.Decide(v)
}
