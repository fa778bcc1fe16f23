// Package anbac implements aNBAC (paper Appendix E.3), the message-optimal
// protocol for the cell (AV, A): agreement and validity in every
// crash-failure execution, agreement in every network-failure execution,
// with n-1+f messages in every nice execution.
//
// aNBAC runs the (n-1+f)NBAC chain for the commit path and overlays the
// 0NBAC-style acknowledgement choreography ([V,0] / [B,0] / [ACK]) for the
// abort path: a process may only decide 0 after every process acknowledged
// having seen the zero, and a process that saw a zero (or missed an
// acknowledgement) raises the noop flag, which silences the chain's commit
// decision. Termination is sacrificed: with failures a process may stay
// undecided forever, which the cell permits.
//
// Timer convention: paper clock k -> (k-1)*U, tick 0 = Propose.
package anbac

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/protocols/chainnbac"
	"atomiccommit/internal/wire"
)

// Message types of the overlay; the chain's aggregate is chainnbac.MsgVal.
type (
	// MsgV0 announces a 0 vote (overlay).
	MsgV0 struct{}
	// MsgB0 is the second-round zero announcement from 1-voters (overlay).
	MsgB0 struct{}
	// MsgAck acknowledges a MsgV0 (B=false) or MsgB0 (B=true).
	MsgAck struct{ B bool }
)

func (MsgV0) Kind() string { return "V0" }
func (MsgB0) Kind() string { return "B0" }
func (m MsgAck) Kind() string {
	if m.B {
		return "ACKB"
	}
	return "ACKV"
}

// Wire IDs (anbac block 63..65; see internal/live's registry).
const (
	wireIDV0 uint16 = 63 + iota
	wireIDB0
	wireIDAck
)

func (MsgV0) WireID() uint16  { return wireIDV0 }
func (MsgB0) WireID() uint16  { return wireIDB0 }
func (MsgAck) WireID() uint16 { return wireIDAck }

func (MsgV0) MarshalWire(b []byte) []byte { return b }
func (MsgV0) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgV0{}, d.Err()
}

func (MsgB0) MarshalWire(b []byte) []byte { return b }
func (MsgB0) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgB0{}, d.Err()
}

func (m MsgAck) MarshalWire(b []byte) []byte { return wire.AppendBool(b, m.B) }
func (MsgAck) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgAck{B: d.Bool()}, d.Err()
}

// Timer tags of the overlay; the chain's own come first.
const (
	tagOver0 = chainnbac.TagPhase3 + 1 + iota // overlay timer0, first firing
	tagOver1                                  // overlay timer0, second firing
)

// ANBAC is one process's instance: the (n-1+f)NBAC chain plus the overlay.
type ANBAC struct {
	chainnbac.Chain
	env core.Env

	// Overlay state (as in zeronbac).
	vote        core.Value
	deliveredV  bool
	collectionV core.ProcSet // who acknowledged this process's [V,0]
	collectionB core.ProcSet // who acknowledged this process's [B,0]
	noop        bool
	phase0      int
}

// New returns an aNBAC factory.
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &ANBAC{} }
}

// Init implements core.Module.
func (p *ANBAC) Init(env core.Env) {
	p.env = env
	p.Chain.Init(env)
	p.collectionV = core.NewProcSet(env.N())
	p.collectionB = core.NewProcSet(env.N())
}

// Propose implements core.Module.
func (p *ANBAC) Propose(v core.Value) {
	p.vote = v
	p.Chain.Propose(v)
	if v == core.Abort {
		core.SendAll(p.env, MsgV0{})
		p.env.SetTimerAt(p.At(3), tagOver0)
	} else {
		p.env.SetTimerAt(p.At(2), tagOver0)
	}
}

// Deliver implements core.Module.
func (p *ANBAC) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgV0:
		p.Decision = core.Abort
		p.deliveredV = true
		p.env.Send(from, MsgAck{B: false})
	case MsgB0:
		p.Decision = core.Abort
		p.env.Send(from, MsgAck{B: true})
	case MsgAck:
		if msg.B {
			p.collectionB.Add(from)
		} else {
			p.collectionV.Add(from)
		}
	case chainnbac.MsgVal:
		p.Chain.Deliver(from, msg.V)
	}
}

// Timeout implements core.Module.
func (p *ANBAC) Timeout(tag int) {
	switch tag {
	case tagOver0:
		switch {
		case p.vote == core.Commit && p.deliveredV && p.phase0 == 0:
			// Saw a zero: announce it and wait for everybody's ack.
			core.SendAll(p.env, MsgB0{})
			p.env.SetTimerAt(p.At(4), tagOver1)
			p.phase0 = 1
		case p.vote == core.Abort:
			p.abortIfAcked(p.collectionV)
		}
	case tagOver1:
		if p.vote == core.Commit && p.deliveredV && p.phase0 == 1 {
			p.abortIfAcked(p.collectionB)
		}
	default:
		// The chain's commit stands only if the overlay raised no objection.
		if p.Chain.Timeout(tag) && !p.Decided && p.Decision == core.Commit && !p.noop {
			p.Decided = true
			p.env.Decide(core.Commit)
		}
	}
}

// abortIfAcked decides 0 if every process acknowledged having seen the zero;
// otherwise some process may commit on silence, so this one never decides.
func (p *ANBAC) abortIfAcked(acks core.ProcSet) {
	if acks.Full() && !p.Decided {
		p.Decided = true
		p.env.Decide(core.Abort)
	} else {
		p.noop = true
	}
}
