// Package hubnbac implements (2n-2)NBAC (paper Appendix E.4), the
// message-optimal protocol for the cell (AVT, VT): 2n-2 messages in every
// nice execution, matching the paper's generalization of the 2n-2 lower
// bound for protocols that keep validity under network failures.
//
// Everybody funnels its vote to the hub Pn, which answers with the aggregate
// [B, votes]; processes then noop for f+1 delays so that in a crash-failure
// execution at least one process always manages to flood an abort to every
// correct process (agreement). Under network failures, validity and
// termination survive but agreement may not — the protocol never uses
// consensus.
//
// Timer convention: paper clock k -> (k-1)*U, tick 0 = Propose.
package hubnbac

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types.
type (
	// MsgV carries a vote to the hub.
	MsgV struct{ V core.Value }
	// MsgB carries the hub's aggregate (or an abort flood).
	MsgB struct{ V core.Value }
)

func (MsgV) Kind() string { return "V" }
func (MsgB) Kind() string { return "B" }

// Wire IDs (hubnbac block 68..69; see internal/live's registry).
const (
	wireIDV uint16 = 68 + iota
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

// Timer tags.
const (
	tagGather = 0
	tagDecide = 1
)

// HubNBAC is one process's instance.
type HubNBAC struct {
	env core.Env

	votes       core.Value
	collection  core.ProcSet // whose vote the hub holds
	receivedB   bool
	phase       int
	zeroFlooded bool
}

// New returns a (2n-2)NBAC factory.
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &HubNBAC{} }
}

// Init implements core.Module.
func (p *HubNBAC) Init(env core.Env) {
	p.env = env
	p.votes = core.Commit
	p.collection = core.NewProcSet(env.N())
	p.collection.Add(env.ID())
}

func (p *HubNBAC) hub() core.ProcessID { return core.ProcessID(p.env.N()) }

func (p *HubNBAC) at(paperTime int) core.Ticks { return core.Ticks(paperTime-1) * p.env.U() }

// Propose implements core.Module.
func (p *HubNBAC) Propose(v core.Value) {
	p.votes = p.votes.And(v)
	if p.env.ID() != p.hub() {
		p.env.Send(p.hub(), MsgV{V: v})
		p.env.SetTimerAt(p.at(3), tagGather)
	} else {
		p.env.SetTimerAt(p.at(2), tagGather)
	}
}

// Deliver implements core.Module.
func (p *HubNBAC) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgV:
		p.votes = p.votes.And(msg.V)
		p.collection.Add(from)
	case MsgB:
		p.receivedB = true
		p.votes = msg.V
		if p.votes == core.Abort {
			p.floodZero()
		}
	}
}

func (p *HubNBAC) floodZero() {
	if p.zeroFlooded {
		return
	}
	p.zeroFlooded = true
	core.SendOthers(p.env, MsgB{V: core.Abort})
}

// Timeout implements core.Module.
func (p *HubNBAC) Timeout(tag int) {
	switch {
	case tag == tagGather && p.phase == 0:
		p.phase = 1
		if p.env.ID() == p.hub() {
			if p.votes == core.Commit && p.collection.Full() {
				core.SendRange(p.env, 1, p.env.N()-1, MsgB{V: core.Commit})
			} else {
				p.votes = core.Abort
				p.floodZero()
			}
		} else if !p.receivedB {
			p.votes = core.Abort
			p.floodZero()
		}
		p.env.SetTimerAt(p.at(3+p.env.F()), tagDecide)
	case tag == tagDecide && p.phase == 1:
		p.env.Decide(p.votes)
	}
}
