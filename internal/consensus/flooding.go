package consensus

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// Flooding is a synchronous uniform consensus: f+1 timer-driven rounds of
// flooding the set of votes seen so far, deciding the AND of everything seen
// at the end of round f+1.
//
// In a crash-failure (synchronous) system it satisfies uniform agreement,
// validity, and termination for ANY f <= n-1 (no majority needed): among the
// f+1 rounds at least one is crash-free, after which all alive participants
// hold identical sets, and nobody decides before the last round. In a
// network-failure execution it still terminates (rounds are timer-driven)
// and stays valid, but agreement may be violated — exactly the contract the
// paper's synchronous NBAC protocols (1NBAC's cell (AVT, VT)) need from
// their consensus module, in contrast to the indulgent Paxos-based module
// which trades any-f termination for network-failure agreement.
type Flooding struct {
	env core.Env

	engaged  bool
	proposed bool
	decided  bool
	round    int
	rounds   int

	// seen holds the latest value learned from each process (its proposal,
	// ANDed conservatively if a process ever equivocated, which correct code
	// never does).
	seen core.VoteSet
}

// MsgFlood carries the sender's current view: every (process, value) pair it
// has seen, in a fixed-width slice indexed by process (entry 255 = unknown).
type MsgFlood struct {
	Round int
	View  []uint8 // len n; 0, 1 or floodUnknown
}

// Kind implements core.Message.
func (MsgFlood) Kind() string { return "cFLOOD" }

// WireID implements core.Wire.
func (MsgFlood) WireID() uint16 { return wireIDFlood }

// MarshalWire implements core.Wire.
func (m MsgFlood) MarshalWire(b []byte) []byte {
	b = wire.AppendInt(b, m.Round)
	return wire.AppendBytes(b, m.View)
}

// UnmarshalWire implements core.Wire.
func (MsgFlood) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgFlood{Round: d.Int(), View: d.Bytes()}, d.Err()
}

const floodUnknown uint8 = 255

// NewFlooding returns a fresh flooding consensus module.
func NewFlooding() *Flooding { return &Flooding{} }

// Init implements core.Module.
func (c *Flooding) Init(env core.Env) {
	c.env = env
	c.rounds = env.F() + 1
	c.seen = core.NewVoteSet(env.N())
}

// Propose implements core.Module.
func (c *Flooding) Propose(v core.Value) {
	if c.proposed || c.decided {
		return
	}
	c.proposed = true
	c.seen.Put(c.env.ID(), v)
	c.engage()
}

func (c *Flooding) engage() {
	if c.engaged {
		return
	}
	c.engaged = true
	c.round = 1
	c.broadcastView()
	c.env.SetTimerAt(c.env.Now()+c.env.U(), c.round)
}

func (c *Flooding) view() []uint8 {
	v := make([]uint8, c.env.N())
	for i := range v {
		v[i] = floodUnknown
		if val, ok := c.seen.Get(core.ProcessID(i + 1)); ok {
			v[i] = uint8(val)
		}
	}
	return v
}

func (c *Flooding) broadcastView() {
	core.SendOthers(c.env, MsgFlood{Round: c.round, View: c.view()})
}

// Deliver implements core.Module.
func (c *Flooding) Deliver(from core.ProcessID, m core.Message) {
	if c.decided {
		return
	}
	// A view is one entry per process; any other length comes from a peer
	// configured with a different n (or a corrupt frame) and is dropped.
	msg, ok := m.(MsgFlood)
	if !ok || len(msg.View) != c.env.N() {
		return
	}
	// Engage lazily: a participant that never proposes still relays views
	// so the crash-free-round argument covers it (it simply contributes no
	// value of its own).
	c.engage()
	for i, b := range msg.View {
		if b == floodUnknown {
			continue
		}
		p, v := core.ProcessID(i+1), core.Value(b)
		if prev, ok := c.seen.Get(p); ok {
			v = prev.And(v)
		}
		c.seen.Put(p, v)
	}
}

// Timeout implements core.Module: end of round `tag`.
func (c *Flooding) Timeout(tag int) {
	if c.decided || tag != c.round {
		return
	}
	if c.round >= c.rounds {
		c.decided = true
		// Decide the AND of every value seen; with mixed proposals this is
		// 0, which some process proposed, so consensus validity holds.
		c.env.Decide(c.seen.And())
		return
	}
	c.round++
	c.broadcastView()
	c.env.SetTimerAt(c.env.Now()+c.env.U(), c.round)
}
