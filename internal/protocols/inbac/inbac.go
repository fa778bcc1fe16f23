// Package inbac implements INBAC (paper section 5 and Appendix A), the
// paper's primary contribution: an indulgent atomic commit protocol — every
// network-failure execution solves NBAC — that is delay-optimal (2 message
// delays) and message-optimal among delay-optimal protocols (2fn messages)
// in every nice execution (Theorems 5 and 6).
//
// Structure of a nice execution (all at multiples of U):
//
//	t=0   every process P sends its vote to its f backup processes B_P:
//	      B_P = {P1..Pf} for P in {Pf+1..Pn}, and {P1..Pf+1}\{P} for
//	      P in {P1..Pf}.
//	t=U   every backup acknowledges by sending the SET of votes it backs
//	      up in a single bundled message [C, collection] (P1..Pf broadcast
//	      to everyone, Pf+1 answers P1..Pf only — Lemma 6's f-1 cross
//	      acknowledgements).
//	t=2U  a process holding f correct acknowledgements that together
//	      contain all n votes decides their AND.
//
// In any other execution a process falls back on an indulgent uniform
// consensus, possibly after asking {Pf+1..Pn} for the acknowledgements they
// received ([HELP]/[HELPED]) and waiting for n-f answers — the state machine
// of the paper's Figure 1.
//
// Options.Accelerated adds the section 5.2 fast abort: a 0-voter announces
// its vote to everybody and decides immediately, so failure-free aborting
// executions finish after ONE message delay. Options.UnbundledAcks disables
// the bundled acknowledgements for the ablation benchmark (the message count
// then exceeds 2fn, showing the bundling is what achieves the bound).
package inbac

import (
	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// VotePair is one (process, vote) entry of a backed-up collection.
type VotePair struct {
	P core.ProcessID
	V core.Value
}

// Message types.
type (
	// MsgV sends a vote to a backup process.
	MsgV struct{ V core.Value }
	// MsgC is a backup's bundled acknowledgement: every vote it backs up.
	MsgC struct{ Pairs []VotePair }
	// MsgHelp asks {Pf+1..Pn} for the acknowledgements they received.
	MsgHelp struct{}
	// MsgHelped answers MsgHelp with the responder's aggregated collection.
	MsgHelped struct{ Pairs []VotePair }
	// MsgA is the accelerated-abort announcement (section 5.2).
	MsgA struct{}
)

func (MsgV) Kind() string      { return "V" }
func (MsgC) Kind() string      { return "C" }
func (MsgHelp) Kind() string   { return "HELP" }
func (MsgHelped) Kind() string { return "HELPED" }
func (MsgA) Kind() string      { return "A" }

// Wire IDs (inbac block 16..20; see internal/live's registry).
const (
	wireIDV uint16 = 16 + iota
	wireIDC
	wireIDHelp
	wireIDHelped
	wireIDA
)

func (MsgV) WireID() uint16      { return wireIDV }
func (MsgC) WireID() uint16      { return wireIDC }
func (MsgHelp) WireID() uint16   { return wireIDHelp }
func (MsgHelped) WireID() uint16 { return wireIDHelped }
func (MsgA) WireID() uint16      { return wireIDA }

func (m MsgV) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }
func (MsgV) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgV{V: core.Value(d.Uvarint())}, d.Err()
}

// appendPairs/decodePairs encode a collection as a count-prefixed sequence
// of (process, vote) uvarint pairs — the format MsgC and MsgHelped share.
func appendPairs(b []byte, pairs []VotePair) []byte {
	b = wire.AppendUvarint(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = wire.AppendUvarint(b, uint64(p.P))
		b = wire.AppendUvarint(b, uint64(p.V))
	}
	return b
}

func decodePairs(d *wire.Decoder) []VotePair {
	n := int(d.Uvarint())
	if d.Err() != nil || n == 0 {
		return nil
	}
	// Cap the pre-size by the remaining bytes (a pair is >= 2 of them), so a
	// corrupt count cannot force a huge allocation; the reads below surface
	// ErrTruncated when the count lies.
	capHint := n
	if r := d.Remaining(); capHint > r {
		capHint = r
	}
	pairs := make([]VotePair, 0, capHint)
	for i := 0; i < n && d.Err() == nil; i++ {
		pairs = append(pairs, VotePair{P: core.ProcessID(d.Uvarint()), V: core.Value(d.Uvarint())})
	}
	return pairs
}

func (m MsgC) MarshalWire(b []byte) []byte { return appendPairs(b, m.Pairs) }
func (MsgC) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgC{Pairs: decodePairs(d)}, d.Err()
}

func (MsgHelp) MarshalWire(b []byte) []byte { return b }
func (MsgHelp) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgHelp{}, d.Err()
}

func (m MsgHelped) MarshalWire(b []byte) []byte { return appendPairs(b, m.Pairs) }
func (MsgHelped) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgHelped{Pairs: decodePairs(d)}, d.Err()
}

func (MsgA) MarshalWire(b []byte) []byte { return b }
func (MsgA) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return MsgA{}, d.Err()
}

// Timer tags.
const (
	tagBackup = 0 // backup acknowledgement deadline (time U)
	tagDecide = 1 // decision deadline (time 2U)
)

// Options configures INBAC.
type Options struct {
	// Consensus builds the underlying indulgent uniform consensus module
	// (paper Definition 5); nil means the Paxos-based module. INBAC's
	// correctness and best-case complexity are independent of the choice.
	Consensus func() core.Module

	// Accelerated enables the section 5.2 fast abort path.
	Accelerated bool

	// UnbundledAcks makes backups acknowledge each vote in its own message
	// instead of one bundled [C, V] per destination — the ablation showing
	// that bundling is necessary for the 2fn bound.
	UnbundledAcks bool

	// PathHook, when set, reports which branch of the Figure 1 state
	// machine each process takes. Used by the Figure 1 reproduction
	// harness; nil in production.
	PathHook func(p core.ProcessID, b Branch)
}

// Branch enumerates the decision paths of the paper's Figure 1.
type Branch int

// The Figure 1 branches.
const (
	// BranchFastDecide: f correct acks holding all n votes -> decide AND.
	BranchFastDecide Branch = iota
	// BranchConsAND: some ack, all n votes known -> cons-propose AND.
	BranchConsAND
	// BranchConsZero: some ack, votes missing -> cons-propose 0.
	BranchConsZero
	// BranchAskHelp: no ack from {P1..Pf} -> ask {Pf+1..Pn} for more acks.
	BranchAskHelp
	// BranchHelpFast: the awaited n-f answers completed the f acks.
	BranchHelpFast
	// BranchHelpConsAND: after help, all votes known -> cons-propose AND.
	BranchHelpConsAND
	// BranchHelpConsZero: after help, votes missing -> cons-propose 0.
	BranchHelpConsZero
	// BranchConsensusDecided: the final decision came from consensus.
	BranchConsensusDecided
)

// Tag is the branch's short stable name, used as the "decide-path"
// annotation (core.Annotate) on the live runtime: it labels the flight
// recorder's per-transaction timeline, the decide_path.* counters and the
// live auditor's violation reports.
func (b Branch) Tag() string {
	switch b {
	case BranchFastDecide:
		return "fast"
	case BranchConsAND:
		return "cons-and"
	case BranchConsZero:
		return "cons-zero"
	case BranchAskHelp:
		return "ask-help"
	case BranchHelpFast:
		return "help-fast"
	case BranchHelpConsAND:
		return "help-cons-and"
	case BranchHelpConsZero:
		return "help-cons-zero"
	case BranchConsensusDecided:
		return "consensus"
	}
	return "unknown"
}

// String names the branch as in Figure 1.
func (b Branch) String() string {
	switch b {
	case BranchFastDecide:
		return "decide AND(n votes)"
	case BranchConsAND:
		return "propose AND(n votes) to cons"
	case BranchConsZero:
		return "propose 0 to cons"
	case BranchAskHelp:
		return "ask for more acks and wait until >= n-f messages"
	case BranchHelpFast:
		return "decide AND(n votes) after help"
	case BranchHelpConsAND:
		return "propose AND(n votes) to cons after help"
	case BranchHelpConsZero:
		return "propose 0 to cons after help"
	case BranchConsensusDecided:
		return "decide the same decision of cons"
	}
	return "?"
}

// INBAC is one process's instance.
type INBAC struct {
	env  core.Env
	opts Options
	uc   consensus.Lazy // built by the first consensus branch: a nice execution takes none

	val      core.Value
	phase    uint8
	proposed bool
	decided  bool
	wait     bool

	collection0    core.VoteSet    // votes backed up here (phase 0), later the aggregate
	collection1    []core.VoteSet  // [C] acknowledgements; index j-1 holds those of Pj, j in 1..f+1
	collectionHelp core.VoteSet    // union of [HELPED] collections
	union          core.VoteSet    // unionC's result
	acks           [2]core.VoteSet // collection1's storage while f <= 1
	cnt            int             // number of [C] messages received
	cntHelp        int             // number of [HELPED] messages received

	pendingHelp []core.ProcessID
}

// putPairs adds a received collection to s (core.VoteSet drops entries for
// processes outside 1..n).
func putPairs(s *core.VoteSet, pairs []VotePair) {
	for _, pr := range pairs {
		s.Put(pr.P, pr.V)
	}
}

// pairsOf lists s in process order, the wire form of a collection.
func pairsOf(s *core.VoteSet) []VotePair {
	out := make([]VotePair, 0, s.Count())
	for p := s.Next(0); p != 0; p = s.Next(p) {
		v, _ := s.Get(p)
		out = append(out, VotePair{P: p, V: v})
	}
	return out
}

// New returns an INBAC factory.
func New(opts Options) func(core.ProcessID) core.Module {
	return func(core.ProcessID) core.Module { return &INBAC{opts: opts} }
}

// Init implements core.Module.
func (p *INBAC) Init(env core.Env) {
	p.env = env
	n := env.N()
	p.collection0, p.collectionHelp, p.union = core.NewVoteSet(n), core.NewVoteSet(n), core.NewVoteSet(n)
	if k := env.F() + 1; k <= len(p.acks) {
		p.collection1 = p.acks[:k]
	} else {
		p.collection1 = make([]core.VoteSet, k)
	}
	for j := range p.collection1 {
		p.collection1[j] = core.NewVoteSet(n)
	}
	p.uc.New = p.opts.Consensus
	env.Register("iuc", &p.uc, p.onConsensus)
}

func (p *INBAC) i() int { return int(p.env.ID()) }
func (p *INBAC) n() int { return p.env.N() }
func (p *INBAC) f() int { return p.env.F() }

// Propose implements core.Module.
func (p *INBAC) Propose(v core.Value) {
	p.val = v
	if p.opts.Accelerated && v == core.Abort {
		// Section 5.2: announce the 0 and decide immediately; the protocol
		// keeps running underneath so backups and helpers stay consistent.
		core.SendOthers(p.env, MsgA{})
		p.decide(core.Abort)
	}
	core.SendRange(p.env, 1, p.f(), MsgV{V: v})
	if p.i() <= p.f() {
		p.env.Send(core.ProcessID(p.f()+1), MsgV{V: v})
	}
	if p.i() <= p.f()+1 {
		p.env.SetTimerAt(p.env.U(), tagBackup) // phase stays 0: we back up votes
	} else {
		p.env.SetTimerAt(2*p.env.U(), tagDecide)
		p.phase = 1
	}
}

// Deliver implements core.Module.
func (p *INBAC) Deliver(from core.ProcessID, m core.Message) {
	switch msg := m.(type) {
	case MsgV:
		if p.phase == 0 {
			p.collection0.Put(from, msg.V)
		}
	case MsgC:
		if from < 1 || int(from) > len(p.collection1) {
			return // only P1..Pf+1 acknowledge
		}
		putPairs(&p.collection1[from-1], msg.Pairs)
		p.cnt++
		p.checkWait()
	case MsgHelp:
		p.pendingHelp = append(p.pendingHelp, from)
		p.flushHelp()
	case MsgHelped:
		putPairs(&p.collectionHelp, msg.Pairs)
		p.cntHelp++
		p.checkWait()
	case MsgA:
		p.decide(core.Abort)
	}
}

// flushHelp answers queued [HELP] requests once the guard of the paper's
// handler holds (i >= f+1 and phase = 2; we additionally answer once decided
// so the accelerated abort cannot starve a waiting process).
func (p *INBAC) flushHelp() {
	if p.i() < p.f()+1 || (p.phase != 2 && !p.decided) {
		return
	}
	for _, q := range p.pendingHelp {
		p.env.Send(q, MsgHelped{Pairs: pairsOf(&p.collection0)})
	}
	p.pendingHelp = nil
}

// Timeout implements core.Module. The annotations name which handler a
// fired timer ran — the flight recorder's raw timer-fire event only
// carries the numeric tag, and the 2U deadline dispatches on rank
// (decideTimeoutHigh for {Pf+1..Pn} vs decideTimeoutLow for {P1..Pf}),
// which is exactly the split the INBAC agreement audit needs to see.
func (p *INBAC) Timeout(tag int) {
	switch {
	case tag == tagBackup && p.phase == 0:
		core.Annotate(p.env, "inbac.timer", "sendAcks")
		p.sendAcks()
		p.phase = 1
		p.env.SetTimerAt(2*p.env.U(), tagDecide)
	case tag == tagDecide && p.phase == 1 && !p.decided && !p.proposed:
		if p.i() >= p.f()+1 {
			core.Annotate(p.env, "inbac.timer", "decideTimeoutHigh")
			p.decideTimeoutHigh()
		} else {
			core.Annotate(p.env, "inbac.timer", "decideTimeoutLow")
			p.decideTimeoutLow()
		}
	}
}

// sendAcks is the backup acknowledgement at time U: P1..Pf broadcast their
// collection to everyone, Pf+1 answers its f wards only.
func (p *INBAC) sendAcks() {
	last := p.n()
	if p.i() == p.f()+1 {
		last = p.f()
	}
	pairs := pairsOf(&p.collection0)
	if p.opts.UnbundledAcks {
		for d := 1; d <= last; d++ {
			for _, pr := range pairs {
				p.env.Send(core.ProcessID(d), MsgC{Pairs: []VotePair{pr}})
			}
		}
		return
	}
	core.SendRange(p.env, 1, last, MsgC{Pairs: pairs})
}

// unionC is the union of every acknowledged collection received so far. The
// result is valid until the next call.
func (p *INBAC) unionC() *core.VoteSet {
	p.union.Reset()
	for j := range p.collection1 {
		p.union.Merge(&p.collection1[j])
	}
	return &p.union
}

// fullAcksHigh is the decision test for P in {Pf+1..Pn}: a correct
// acknowledgement from all f backups, each containing all n votes.
func (p *INBAC) fullAcksHigh() bool {
	for j := 0; j < p.f(); j++ {
		if !p.collection1[j].Full() {
			return false
		}
	}
	return true
}

// fullAcksLow is the decision test for P in {P1..Pf}: acknowledgements from
// P1..Pf (all n votes each) and from Pf+1 (the votes of P1..Pf).
func (p *INBAC) fullAcksLow() bool {
	return p.fullAcksHigh() && p.collection1[p.f()].Holds(p.f())
}

// decideTimeoutHigh is the time-2U handler for P in {Pf+1..Pn}: the state
// machine of the paper's Figure 1.
func (p *INBAC) decideTimeoutHigh() {
	p.phase = 2
	// Fold everything known into the aggregate this process would hand to
	// others when helping.
	p.collection0.Merge(p.unionC())
	p.collection0.Put(p.env.ID(), p.val)
	p.flushHelp()

	switch {
	case p.fullAcksHigh():
		p.hook(BranchFastDecide)
		p.decide(p.unionC().And())
	case p.cnt >= 1:
		p.proposeFrom(p.unionC())
	default:
		// No acknowledgement from any of P1..Pf: ask Pf+1..Pn for the
		// acknowledgements they received and wait for n-f answers in total.
		p.hook(BranchAskHelp)
		p.wait = true
		core.SendRange(p.env, p.f()+1, p.n(), MsgHelp{})
	}
}

func (p *INBAC) hook(b Branch) {
	// BranchAskHelp is a waypoint, not a decision: it reports entering the
	// help phase; the decide path is whichever branch ends the wait.
	if b == BranchAskHelp {
		core.Annotate(p.env, "inbac.help", "asking")
	} else {
		core.Annotate(p.env, "decide-path", b.Tag())
	}
	if p.opts.PathHook != nil {
		p.opts.PathHook(p.env.ID(), b)
	}
}

// decideTimeoutLow is the time-2U handler for P in {P1..Pf}, which can
// always resolve immediately (it received its own broadcast at least).
func (p *INBAC) decideTimeoutLow() {
	if p.fullAcksLow() {
		p.hook(BranchFastDecide)
		p.decide(p.unionC().And())
		return
	}
	p.proposeFrom(p.unionC())
}

// proposeFrom cons-proposes the AND of all n votes when the collection is
// complete and 0 otherwise (the paper: missing votes mean a failure, so it
// is safe to propose abort).
func (p *INBAC) proposeFrom(u *core.VoteSet) {
	p.proposed = true
	if u.Full() {
		p.hook(BranchConsAND)
		p.uc.Propose(u.And())
	} else {
		p.hook(BranchConsZero)
		p.uc.Propose(core.Abort)
	}
}

// checkWait fires the paper's "upon cnt + cnt_help >= n-f and wait" guard.
func (p *INBAC) checkWait() {
	if !p.wait || p.proposed || p.decided || p.i() < p.f()+1 {
		return
	}
	if p.cnt+p.cntHelp < p.n()-p.f() {
		return
	}
	core.Annotate(p.env, "inbac.help", "wait-satisfied")
	p.wait = false
	switch {
	case p.fullAcksHigh():
		p.hook(BranchHelpFast)
		p.decide(p.unionC().And())
	case p.cnt >= 1:
		p.proposeFrom(p.unionC())
	default:
		p.proposed = true
		if p.collectionHelp.Full() {
			p.hook(BranchHelpConsAND)
			p.uc.Propose(p.collectionHelp.And())
		} else {
			p.hook(BranchHelpConsZero)
			p.uc.Propose(core.Abort)
		}
	}
}

func (p *INBAC) onConsensus(v core.Value) {
	if !p.decided {
		p.hook(BranchConsensusDecided)
	}
	p.decide(v)
}

func (p *INBAC) decide(v core.Value) {
	if p.decided {
		return
	}
	p.decided = true
	p.env.Decide(v)
}
