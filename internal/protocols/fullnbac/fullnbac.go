// Package fullnbac implements (2n-2+f)NBAC (paper Appendix E.6), the
// message-optimal indulgent atomic commit protocol: 2n-2+f messages in every
// nice execution, matching the paper's lower bound for the most robust cell
// (AVT, AVT) — every crash-failure AND network-failure execution solves
// NBAC (termination under failures needs a correct majority, inherited from
// the underlying indulgent consensus).
//
// The commit path is a double ring pass (votes P1->...->Pn, aggregate
// Pn->P1->...->Pn) plus a short [Z] tail Pn->P1->...->Pf-1 that gives the
// first f-1 processes their confirmation; any process whose ring messages do
// not arrive in time escalates to the consensus module, possibly after
// asking {P1..Pf, Pn} for help.
//
// Timer convention: paper clock k -> (k-1)*U, tick 0 = Propose.
package fullnbac

import (
	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types.
type (
	// MsgV is the first ring pass (vote aggregation).
	MsgV struct{ V core.Value }
	// MsgB is the second ring pass (decision distribution).
	MsgB struct{ V core.Value }
	// MsgZ is the confirmation tail for P1..Pf-1.
	MsgZ struct{ V core.Value }
	// MsgHelp asks {P1..Pf, Pn} for their aggregate.
	MsgHelp struct{}
	// MsgHelped answers MsgHelp with the helper's aggregate.
	MsgHelped struct{ V core.Value }
)

func (MsgV) Kind() string      { return "V" }
func (MsgB) Kind() string      { return "B" }
func (MsgZ) Kind() string      { return "Z" }
func (MsgHelp) Kind() string   { return "HELP" }
func (MsgHelped) Kind() string { return "HELPED" }

// Wire IDs (fullnbac block 72..76; see internal/live's registry).
const (
	wireIDV uint16 = 72 + iota
	wireIDB
	wireIDZ
	wireIDHelp
	wireIDHelped
)

func (MsgV) WireID() uint16      { return wireIDV }
func (MsgB) WireID() uint16      { return wireIDB }
func (MsgZ) WireID() uint16      { return wireIDZ }
func (MsgHelp) WireID() uint16   { return wireIDHelp }
func (MsgHelped) WireID() uint16 { return wireIDHelped }

func (m MsgV) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgV) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgV{V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgB) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgB) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgB{V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgZ) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgZ) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgZ{V: core.Value(d.Uvarint())}, d.Err()
}

func (MsgHelp) MarshalWire(b []byte) []byte { return b }
func (MsgHelp) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgHelp{}, d.Err()
}

func (m MsgHelped) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgHelped) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgHelped{V: core.Value(d.Uvarint())}, d.Err()
}

// Timer tags are the protocol phases.
const (
	tagPhase0 = 0
	tagPhase1 = 1
	tagPhase2 = 2
)

// FullNBAC is one process's instance.
type FullNBAC struct {
	env core.Env
	uc  consensus.Lazy // built by the first consensus proposal or message

	votes     core.Value
	receivedV bool
	receivedB bool
	receivedZ bool
	phase     int
	decided   bool
	proposed  bool

	pendingHelp []core.ProcessID
}

// New returns a (2n-2+f)NBAC factory. The underlying indulgent uniform
// consensus is always the Paxos-based module.
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &FullNBAC{} }
}

// Init implements core.Module.
func (p *FullNBAC) Init(env core.Env) {
	p.env = env
	p.votes = core.Commit
	env.Register("uc", &p.uc, p.onConsensus)
}

func (p *FullNBAC) i() int { return int(p.env.ID()) }
func (p *FullNBAC) n() int { return p.env.N() }
func (p *FullNBAC) f() int { return p.env.F() }

func (p *FullNBAC) at(paperTime int) core.Ticks { return core.Ticks(paperTime-1) * p.env.U() }

// Propose implements core.Module.
func (p *FullNBAC) Propose(v core.Value) {
	p.votes = p.votes.And(v)
	if p.i() == 1 {
		p.env.Send(2, MsgV{V: p.votes})
		p.env.SetTimerAt(p.at(p.n()+1), tagPhase1)
		p.phase = 1
	} else {
		p.env.SetTimerAt(p.at(p.i()), tagPhase0)
	}
}

// Deliver implements core.Module.
func (p *FullNBAC) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgV:
		if p.phase == 0 {
			p.votes = p.votes.And(msg.V)
			p.receivedV = true
		}
	case MsgB:
		if p.phase == 1 {
			p.votes = p.votes.And(msg.V)
			p.receivedB = true
		}
	case MsgZ:
		if p.phase == 2 {
			p.votes = p.votes.And(msg.V)
			p.receivedZ = true
		}
	case MsgHelp:
		// Queue until the phase condition holds (paper Appendix A remark
		// (c): an early message waits for its guard).
		p.pendingHelp = append(p.pendingHelp, from)
		p.flushHelp()
	case MsgHelped:
		if !p.proposed {
			p.proposed = true
			p.uc.Propose(msg.V)
		}
	}
}

// flushHelp answers queued MsgHelp requests once this process reaches the
// phase in which the paper lets it answer.
func (p *FullNBAC) flushHelp() {
	canHelp := (p.i() == p.n() && p.phase == 1) || (p.i() <= p.f() && p.phase == 2)
	if !canHelp {
		return
	}
	for _, q := range p.pendingHelp {
		p.env.Send(q, MsgHelped{V: p.votes})
	}
	p.pendingHelp = nil
}

func (p *FullNBAC) proposeZero() {
	p.votes = core.Abort
	if !p.proposed {
		p.proposed = true
		p.uc.Propose(core.Abort)
	}
}

// Timeout implements core.Module.
func (p *FullNBAC) Timeout(tag int) {
	switch {
	case tag == tagPhase0 && p.phase == 0:
		if p.receivedV {
			if p.i() == p.n() {
				p.env.Send(1, MsgB{V: p.votes})
			} else {
				p.env.Send(core.ProcessID(p.i()+1), MsgV{V: p.votes})
			}
		} else {
			p.proposeZero()
		}
		p.env.SetTimerAt(p.at(p.n()+p.i()), tagPhase1)
		p.phase = 1
		p.flushHelp()
	case tag == tagPhase1 && p.phase == 1:
		p.phase1Timeout()
	case tag == tagPhase2 && p.phase == 2:
		if p.i() >= 1 && p.i() <= p.f()-1 {
			if p.receivedZ {
				p.decide(p.votes)
				if p.f()-1 >= p.i()+1 {
					p.env.Send(core.ProcessID(p.i()+1), MsgZ{V: p.votes})
				}
			} else if !p.proposed {
				p.proposed = true
				p.uc.Propose(p.votes)
			}
		}
	}
}

func (p *FullNBAC) phase1Timeout() {
	i, f, n := p.i(), p.f(), p.n()
	switch {
	case i == f:
		if p.receivedB {
			p.env.Send(core.ProcessID(f+1), MsgB{V: p.votes})
			p.decide(p.votes)
		} else {
			p.proposeZero()
		}
		p.phase = 2
		p.flushHelp()
	case i == n:
		if p.receivedB {
			p.decide(p.votes)
			if f >= 2 {
				p.env.Send(1, MsgZ{V: p.votes})
			}
		} else if !p.proposed {
			p.proposed = true
			p.uc.Propose(p.votes)
		}
	case 1 <= i && i <= f-1:
		if p.receivedB {
			p.env.Send(core.ProcessID(i+1), MsgB{V: p.votes})
		} else {
			p.proposeZero()
		}
		p.env.SetTimerAt(p.at(2*n+i), tagPhase2)
		p.phase = 2
		p.flushHelp()
	case f+1 <= i && i <= n-1:
		if p.receivedB {
			p.env.Send(core.ProcessID(i+1), MsgB{V: p.votes})
			p.decide(p.votes)
		} else {
			core.SendRange(p.env, 1, f, MsgHelp{})
			p.env.Send(core.ProcessID(n), MsgHelp{})
		}
	}
}

func (p *FullNBAC) onConsensus(v core.Value) { p.decide(v) }

func (p *FullNBAC) decide(v core.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.env.Decide(v)
}
