// Package onenbac implements 1NBAC (paper section 4.1 and Appendix D), the
// delay-optimal synchronous NBAC protocol: in every nice execution all n
// processes decide after ONE message delay, proving the paper's 1-delay
// lower bound tight (Table 2, cell (AVT, VT); Table 5 column 1NBAC).
//
// Everybody sends its vote to everybody at time 0 (n^2-n messages); a
// process that holds all n votes at time U decides their AND immediately and
// broadcasts the aggregate [D, d] to help the others; a process missing
// votes at U waits one more delay for a [D, d] and otherwise falls back on
// an underlying uniform consensus.
//
// Contract: solves NBAC in every crash-failure execution for any f <= n-1
// (using the synchronous flooding consensus); in network-failure executions
// it keeps validity and termination but may violate agreement — that is the
// price of the optimal delay, per the paper's tradeoff discussion.
package onenbac

import (
	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Message types.
type (
	// MsgV carries a vote.
	MsgV struct{ V core.Value }
	// MsgD carries the AND of all n votes, computed by a process that
	// collected everything within one delay.
	MsgD struct{ V core.Value }
)

func (MsgV) Kind() string { return "V" }
func (MsgD) Kind() string { return "D" }

// Wire IDs (onenbac block 46..47; see internal/live's registry).
const (
	wireIDV uint16 = 46 + iota
	wireIDD
)

func (MsgV) WireID() uint16 { return wireIDV }
func (MsgD) WireID() uint16 { return wireIDD }

func (m MsgV) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgV) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgV{V: core.Value(d.Uvarint())}, d.Err()
}

func (m MsgD) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgD) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgD{V: core.Value(d.Uvarint())}, d.Err()
}

// Timer tags.
const (
	tagPhase0 = 0 // end of the vote-collection delay (time U)
	tagPhase1 = 1 // end of the [D, d] wait (time 2U)
)

// OneNBAC is one process's instance.
type OneNBAC struct {
	env core.Env
	uc  consensus.Lazy // built by the first consensus proposal or message

	phase    int
	proposed bool
	decided  bool
	decision core.Value
	votes    core.ProcSet // whose vote arrived
	gotD     bool
}

// New returns a 1NBAC factory. The underlying consensus is always the
// synchronous flooding module (terminates for any f in crash-failure
// executions, matching 1NBAC's cell (AVT, VT)).
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &OneNBAC{} }
}

// Init implements core.Module.
func (p *OneNBAC) Init(env core.Env) {
	p.env = env
	p.votes = core.NewProcSet(env.N())
	p.decision = core.Commit
	p.uc.New = newFlooding
	env.Register("uc", &p.uc, p.onConsensus)
}

// Propose implements core.Module.
func (p *OneNBAC) Propose(v core.Value) {
	p.decision = p.decision.And(v)
	core.SendAll(p.env, MsgV{V: v})
	p.env.SetTimerAt(p.env.U(), tagPhase0)
}

// Deliver implements core.Module.
func (p *OneNBAC) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgV:
		p.votes.Add(from)
		p.decision = p.decision.And(msg.V)
	case MsgD:
		p.gotD = true
		p.decision = msg.V
	}
}

// Timeout implements core.Module.
func (p *OneNBAC) Timeout(tag int) {
	switch {
	case tag == tagPhase0 && p.phase == 0:
		if p.votes.Full() {
			// All votes in after one delay: decide and help the others.
			core.SendAll(p.env, MsgD{V: p.decision})
			p.decide(p.decision)
			return
		}
		p.phase = 1
		p.env.SetTimerAt(2*p.env.U(), tagPhase1)
	case tag == tagPhase1 && p.phase == 1:
		if p.decided {
			return
		}
		if !p.gotD {
			p.decision = core.Abort
		}
		p.proposed = true
		p.uc.Propose(p.decision)
	}
}

func newFlooding() core.Module { return consensus.NewFlooding() }

func (p *OneNBAC) onConsensus(v core.Value) { p.decide(v) }

func (p *OneNBAC) decide(v core.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.env.Decide(v)
}
