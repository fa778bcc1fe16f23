// Package zeronbac implements 0NBAC (paper Appendix E.1), the protocol for
// the cell (AT, AT): agreement and termination in every crash-failure and
// network-failure execution. It is simultaneously delay-optimal (1 delay)
// and message-optimal (ZERO messages) in nice executions — the only point of
// Table 1 where no time/message tradeoff exists.
//
// The trick is the paper's "implicit vote" technique: a process that votes 1
// sends nothing; silence during the first delay means everybody voted 1.
// A process that votes 0 breaks the silence with [V, 0]; the resulting
// acknowledgement choreography ([B, 0], [ACK]) decides whether it is safe to
// abort without contradicting a silent process that already committed.
package zeronbac

import (
	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types.
type (
	// MsgV announces a 0 vote.
	MsgV struct{}
	// MsgB is the second-round "I saw a zero" announcement from 1-voters.
	MsgB struct{}
	// MsgAck acknowledges a MsgV or MsgB.
	MsgAck struct{}
)

func (MsgV) Kind() string   { return "V0" }
func (MsgB) Kind() string   { return "B0" }
func (MsgAck) Kind() string { return "ACK" }

// Wire IDs (zeronbac block 54..56; see internal/live's registry).
const (
	wireIDV uint16 = 54 + iota
	wireIDB
	wireIDAck
)

func (MsgV) WireID() uint16   { return wireIDV }
func (MsgB) WireID() uint16   { return wireIDB }
func (MsgAck) WireID() uint16 { return wireIDAck }

func (MsgV) MarshalWire(b []byte) []byte { return b }
func (MsgV) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgV{}, d.Err()
}

func (MsgB) MarshalWire(b []byte) []byte { return b }
func (MsgB) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgB{}, d.Err()
}

func (MsgAck) MarshalWire(b []byte) []byte { return b }
func (MsgAck) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgAck{}, d.Err()
}

// Timer tags.
const (
	tagFirst  = 0 // end of the silence window (time U)
	tagSecond = 1 // acknowledgement deadline (time 2U or 3U)
)

// ZeroNBAC is one process's instance.
type ZeroNBAC struct {
	env core.Env
	uc  consensus.Lazy // built by the first consensus proposal or message

	myvote   core.Value
	myack    core.ProcSet // who acknowledged this process's [V] or [B]
	zero     bool
	phase    int
	decided  bool
	proposed bool
}

// New returns a 0NBAC factory. The underlying consensus is always the
// indulgent Paxos module (agreement is required in network-failure executions
// for this cell, so the synchronous flooding consensus is not an option here).
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &ZeroNBAC{} }
}

// Init implements core.Module.
func (p *ZeroNBAC) Init(env core.Env) {
	p.env = env
	p.myack = core.NewProcSet(env.N())
	env.Register("uc", &p.uc, p.onConsensus)
}

// Propose implements core.Module.
func (p *ZeroNBAC) Propose(v core.Value) {
	p.myvote = v
	if v == core.Abort {
		core.SendAll(p.env, MsgV{})
	}
	p.env.SetTimerAt(p.env.U(), tagFirst)
	p.phase = 1
}

// Deliver implements core.Module.
func (p *ZeroNBAC) Deliver(from core.ProcessID, m core.Message) {
	switch m.(type) {
	case MsgV:
		if p.phase == 1 {
			p.zero = true
			p.env.Send(from, MsgAck{})
		}
	case MsgB:
		if p.phase == 2 {
			// Acknowledge unless we are a 1-voter that already committed:
			// such a process must stay silent so that the 0 side cannot
			// gather a full acknowledgement set and abort against us.
			if !(p.myvote == core.Commit && p.decided) {
				p.env.Send(from, MsgAck{})
			}
		}
	case MsgAck:
		p.myack.Add(from)
	}
}

// Timeout implements core.Module.
func (p *ZeroNBAC) Timeout(tag int) {
	switch {
	case tag == tagFirst && p.phase == 1:
		p.phase = 2
		switch {
		case !p.zero && p.myvote == core.Commit:
			// Total silence: everybody voted 1 (implicit votes).
			p.decided = true
			p.env.Decide(core.Commit)
		case p.zero && p.myvote == core.Commit:
			core.SendAll(p.env, MsgB{})
			p.env.SetTimerAt(3*p.env.U(), tagSecond)
		default: // voted 0
			p.env.SetTimerAt(2*p.env.U(), tagSecond)
		}
	case tag == tagSecond && p.phase == 2:
		if p.proposed || p.decided {
			return
		}
		p.proposed = true
		if !p.myack.Full() {
			// Somebody did not acknowledge: it may have committed on
			// silence, so propose 1.
			p.uc.Propose(core.Commit)
		} else {
			p.uc.Propose(core.Abort)
		}
	}
}

func (p *ZeroNBAC) onConsensus(v core.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.env.Decide(v)
}
