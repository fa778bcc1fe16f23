// Package avnbac implements the paper's two avNBAC protocols for the cell
// (AV, AV): agreement and validity in every crash-failure AND every
// network-failure execution, with no termination promise once a failure
// occurs.
//
// The paper reuses the name for two different optimal protocols (Table 3
// remark: "Name avNBAC is abused as the meaning is clear in the context"):
//
//   - the delay-optimal variant (section 4.1): every process broadcasts its
//     vote; whoever holds all n votes after one delay decides their AND.
//     1 message delay, n^2-n messages.
//   - the message-optimal variant (Appendix E.5): everybody funnels votes to
//     Pn, which answers with the aggregate [B, votes]. 2n-2 messages.
//
// Both are one-shot: any missing message simply leaves processes undecided,
// which is allowed because the cell does not include termination.
package avnbac

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types.
type (
	// MsgV carries a vote.
	MsgV struct{ V core.Value }
	// MsgB carries Pn's aggregate of all n votes (message-optimal variant).
	MsgB struct{ V core.Value }
)

func (MsgV) Kind() string { return "V" }
func (MsgB) Kind() string { return "B" }

// Wire IDs (avnbac block 50..51; see internal/live's registry).
const (
	wireIDV uint16 = 50 + iota
	wireIDB
)

func (MsgV) WireID() uint16 { return wireIDV }
func (MsgB) WireID() uint16 { return wireIDB }

func (m MsgV) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgV) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgV{V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgB) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgB) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgB{V: core.Value(d.Uvarint())}, d.Err()
}

// NewDelayOptimal returns the 1-delay variant (section 4.1).
func NewDelayOptimal() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &delayOpt{} }
}

// NewMessageOptimal returns the (2n-2)-message variant (Appendix E.5).
func NewMessageOptimal() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &msgOpt{} }
}

// delayOpt: all-to-all votes, decide at U iff complete.
type delayOpt struct {
	env   core.Env
	votes core.Value
	got   core.ProcSet
}

func (p *delayOpt) Init(env core.Env) {
	p.env = env
	p.votes = core.Commit
	p.got = core.NewProcSet(env.N())
}

func (p *delayOpt) Propose(v core.Value) {
	p.votes = p.votes.And(v)
	core.SendAll(p.env, MsgV{V: v})
	p.env.SetTimerAt(p.env.U(), 0)
}

func (p *delayOpt) Deliver(from core.ProcessID, m core.Message) {
	if msg, ok := m.(MsgV); ok {
		p.got.Add(from)
		p.votes = p.votes.And(msg.V)
	}
}

func (p *delayOpt) Timeout(int) {
	// Decide if and only if every vote arrived within one delay. Every
	// decider then holds the same n votes, so agreement is immediate.
	if p.got.Full() {
		p.env.Decide(p.votes)
	}
}

// msgOpt: funnel to Pn, aggregate back (Appendix E.5; timers shifted so that
// tick 0 is Propose: Pn aggregates at U, the rest decide at 2U).
type msgOpt struct {
	env   core.Env
	votes core.Value
	got   core.ProcSet
	gotB  bool
}

func (p *msgOpt) Init(env core.Env) {
	p.env = env
	p.votes = core.Commit
	p.got = core.NewProcSet(env.N())
}

func (p *msgOpt) hub() core.ProcessID { return core.ProcessID(p.env.N()) }

func (p *msgOpt) Propose(v core.Value) {
	p.votes = p.votes.And(v)
	p.got.Add(p.env.ID())
	if p.env.ID() != p.hub() {
		p.env.Send(p.hub(), MsgV{V: v})
		p.env.SetTimerAt(2*p.env.U(), 0)
	} else {
		p.env.SetTimerAt(p.env.U(), 0)
	}
}

func (p *msgOpt) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgV:
		p.got.Add(from)
		p.votes = p.votes.And(msg.V)
	case MsgB:
		p.gotB = true
		p.votes = msg.V
	}
}

func (p *msgOpt) Timeout(int) {
	if p.env.ID() == p.hub() {
		if p.got.Full() {
			core.SendRange(p.env, 1, p.env.N()-1, MsgB{V: p.votes})
			p.env.Decide(p.votes)
		}
		return
	}
	if p.gotB {
		p.env.Decide(p.votes)
	}
}
