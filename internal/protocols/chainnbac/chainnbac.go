// Package chainnbac implements (n-1+f)NBAC (paper Appendix E.2), the
// message-optimal synchronous NBAC protocol: n-1+f messages in every nice
// execution, matching the paper's generalization of Dwork & Skeen's 2n-2
// lower bound to arbitrary f (Table 3 cell (AVT, T); Table 5).
//
// Communication is a totally ordered chain P1 -> P2 -> ... -> Pn followed by
// the suffix Pn -> P1 -> ... -> Pf (each process forwards the AND of the
// votes seen so far), after which everybody "noops" for f+1 message delays:
// not receiving anything during the noop is an implicit global commit.
//
// Contract: solves NBAC in every crash-failure execution (any f <= n-1,
// no consensus needed); in network-failure executions only termination
// survives — the noop trick reads silence as commitment, which a late
// message can contradict.
//
// Timer convention: the paper's clock for the appendix E protocols starts at
// 1 with the first send; tick 0 here is Propose, so every paper timer value
// k becomes (k-1)*U.
package chainnbac

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// MsgVal carries the AND of the votes collected so far along the chain (and
// the abort floods of failure executions), for every protocol built on
// Chain.
type MsgVal struct{ V core.Value }

// Kind implements core.Message.
func (MsgVal) Kind() string { return "VAL" }

// WireID implements core.Wire (chainnbac block 60).
func (MsgVal) WireID() uint16 { return 60 }

// MarshalWire implements core.Wire.
func (m MsgVal) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }

// UnmarshalWire implements core.Wire.
func (MsgVal) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgVal{V: core.Value(d.Uvarint())}, d.Err()
}

// Timer tags are the chain's phases. A protocol embedding Chain keeps its
// own tags above TagPhase3.
const (
	tagPhase1 = 1
	tagPhase2 = 2
	TagPhase3 = 3 // end of the noop
)

// Chain is the chain state machine — the ring pass, the abort flood and the
// noop — without the final decision, which is what the two protocols built
// on it do differently: (n-1+f)NBAC decides whatever the chain ends with,
// aNBAC commits only if its acknowledgement overlay raised no objection.
type Chain struct {
	env core.Env

	Decision    core.Value // AND of everything seen so far
	Decided     bool       // set by the embedder; a decided process stops re-flooding zeros
	delivered   bool
	phase       int
	zeroFlooded bool
}

// Init attaches the chain to env.
func (c *Chain) Init(env core.Env) {
	c.env, c.Decision = env, core.Commit
}

func (c *Chain) i() int { return int(c.env.ID()) }
func (c *Chain) n() int { return c.env.N() }
func (c *Chain) f() int { return c.env.F() }

// succ and pred implement the paper's % convention (0 maps to n).
func (c *Chain) succ() core.ProcessID { return core.ProcessID(c.i()%c.n() + 1) }
func (c *Chain) pred() core.ProcessID { return core.ProcessID((c.i()-2+c.n())%c.n() + 1) }

// At converts a paper clock value to ticks (see the package comment).
func (c *Chain) At(paperTime int) core.Ticks { return core.Ticks(paperTime-1) * c.env.U() }

// Propose starts the chain with this process's vote.
func (c *Chain) Propose(v core.Value) {
	c.Decision = c.Decision.And(v)
	if c.i() == 1 {
		c.env.Send(2, MsgVal{V: c.Decision})
		c.env.SetTimerAt(c.At(c.n()+1), tagPhase2)
		c.phase = 2
	} else {
		c.env.SetTimerAt(c.At(c.i()), tagPhase1)
		c.phase = 1
	}
}

// Deliver takes an aggregate v received from from.
func (c *Chain) Deliver(from core.ProcessID, v core.Value) {
	c.Decision = c.Decision.And(v)
	if c.phase <= 2 {
		if from == c.pred() {
			c.delivered = true
		}
	} else if !c.Decided && v == core.Abort {
		// During the noop, a zero must be re-flooded so that every correct
		// process hears it before the noop ends (the paper's agreement
		// argument); flooding once per process is enough and avoids the
		// storm a literal re-broadcast per receipt would cause.
		c.floodZero()
	}
}

func (c *Chain) floodZero() {
	if c.zeroFlooded {
		return
	}
	c.zeroFlooded = true
	core.SendOthers(c.env, MsgVal{V: core.Abort})
}

// Timeout runs the chain's handler for tag (tags it does not own are
// ignored) and reports whether the noop just ended: the embedder decides.
func (c *Chain) Timeout(tag int) (noopOver bool) {
	switch {
	case tag == tagPhase1 && c.phase == 1:
		if !c.delivered {
			c.Decision = core.Abort
		}
		if c.Decision == core.Commit {
			c.env.Send(c.succ(), MsgVal{V: c.Decision})
		} else if c.i() == c.n() {
			c.floodZero()
		}
		c.delivered = false
		if c.i() >= c.f()+1 {
			c.env.SetTimerAt(c.At(c.n()+2*c.f()+1), TagPhase3)
			c.phase = 3
		} else {
			c.env.SetTimerAt(c.At(c.n()+c.i()), tagPhase2)
			c.phase = 2
		}
	case tag == tagPhase2 && c.phase == 2:
		if !c.delivered {
			c.Decision = core.Abort
		}
		if c.Decision == core.Commit && c.i() != c.f() {
			c.env.Send(c.succ(), MsgVal{V: c.Decision})
		}
		if c.Decision == core.Abort {
			c.floodZero()
		}
		c.delivered = false
		c.env.SetTimerAt(c.At(c.n()+2*c.f()+1), TagPhase3)
		c.phase = 3
	case tag == TagPhase3 && c.phase == 3:
		return true
	}
	return false
}

// ChainNBAC is one process's (n-1+f)NBAC instance: the chain, deciding its
// aggregate when the noop ends.
type ChainNBAC struct{ Chain }

// New returns a (n-1+f)NBAC factory.
func New() func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &ChainNBAC{} }
}

// Init implements core.Module.
func (p *ChainNBAC) Init(env core.Env) { p.Chain.Init(env) }

// Deliver implements core.Module.
func (p *ChainNBAC) Deliver(from core.ProcessID, m core.Message) {
	if msg, ok := m.(MsgVal); ok {
		p.Chain.Deliver(from, msg.V)
	}
}

// Timeout implements core.Module.
func (p *ChainNBAC) Timeout(tag int) {
	if p.Chain.Timeout(tag) {
		p.Decided = true
		p.env.Decide(p.Decision)
	}
}
