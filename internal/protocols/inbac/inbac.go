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
	"math/bits"

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
// recorder's per-transaction timeline, the decide_path.* counters, and
// the per-path commit latency histograms.
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
	uc   core.Module

	val      core.Value
	phase    int
	proposed bool
	decided  bool
	wait     bool

	collection0    voteSet   // votes backed up here (phase 0), later the aggregate
	collection1    []voteSet // [C] acknowledgements; index j-1 holds those of Pj, j in 1..f+1
	collectionHelp voteSet   // union of [HELPED] collections
	union          voteSet   // unionC's result
	cnt            int       // number of [C] messages received
	cntHelp        int       // number of [HELPED] messages received

	pendingHelp []core.ProcessID
}

// voteSet is a set of (process, vote) pairs with at most one vote per
// process: bit p-1 of has says Pp's vote is in the set, the same bit of yes
// that it is 1. One word each while n <= 64; Init sizes them, no operation
// allocates.
type voteSet struct{ has, yes []uint64 }

func (s voteSet) put(p core.ProcessID, v core.Value) {
	w, bit := int(p-1)/64, uint64(1)<<(uint(p-1)%64)
	s.has[w] |= bit
	if v == core.Commit {
		s.yes[w] |= bit
	} else {
		s.yes[w] &^= bit
	}
}

// putPairs adds a received collection, ignoring processes outside 1..n.
func (s voteSet) putPairs(pairs []VotePair, n int) {
	for _, pr := range pairs {
		if pr.P >= 1 && int(pr.P) <= n {
			s.put(pr.P, pr.V)
		}
	}
}

// merge adds every pair of o, o's vote winning where both have one.
func (s voteSet) merge(o voteSet) {
	for w := range s.has {
		s.has[w] |= o.has[w]
		s.yes[w] = s.yes[w]&^o.has[w] | o.yes[w]
	}
}

func (s voteSet) reset() {
	clear(s.has)
	clear(s.yes)
}

// and is the AND of the votes in the set.
func (s voteSet) and() core.Value {
	for w := range s.has {
		if s.yes[w] != s.has[w] {
			return core.Abort
		}
	}
	return core.Commit
}

// holds reports whether the set has a vote for each of P1..Pk.
func (s voteSet) holds(k int) bool {
	for w := range s.has {
		want := ^uint64(0)
		if k < 64 {
			want = 1<<uint(k) - 1
		}
		if s.has[w]&want != want {
			return false
		}
		if k -= 64; k <= 0 {
			break
		}
	}
	return true
}

// pairs lists the set in process order, the wire form of a collection.
func (s voteSet) pairs() []VotePair {
	count := 0
	for _, h := range s.has {
		count += bits.OnesCount64(h)
	}
	out := make([]VotePair, 0, count)
	for w, h := range s.has {
		for ; h != 0; h &= h - 1 {
			b := bits.TrailingZeros64(h)
			out = append(out, VotePair{P: core.ProcessID(w*64 + b + 1), V: core.Value(s.yes[w] >> uint(b) & 1)})
		}
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
	// One backing array for every set of the instance.
	words := (env.N() + 63) / 64
	backing := make([]uint64, 2*words*(env.F()+4))
	set := func() voteSet {
		s := voteSet{has: backing[:words:words], yes: backing[words : 2*words : 2*words]}
		backing = backing[2*words:]
		return s
	}
	p.collection0, p.collectionHelp, p.union = set(), set(), set()
	p.collection1 = make([]voteSet, env.F()+1)
	for j := range p.collection1 {
		p.collection1[j] = set()
	}
	if p.opts.Consensus != nil {
		p.uc = p.opts.Consensus()
	} else {
		p.uc = consensus.New()
	}
	env.Register("iuc", p.uc, p.onConsensus)
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
		for q := 1; q <= p.n(); q++ {
			if core.ProcessID(q) != p.env.ID() {
				p.env.Send(core.ProcessID(q), MsgA{})
			}
		}
		p.decide(core.Abort)
	}
	for q := 1; q <= p.f(); q++ {
		p.env.Send(core.ProcessID(q), MsgV{V: v})
	}
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
		if p.phase == 0 && from >= 1 && int(from) <= p.n() {
			p.collection0.put(from, msg.V)
		}
	case MsgC:
		if from < 1 || int(from) > len(p.collection1) {
			return // only P1..Pf+1 acknowledge
		}
		p.collection1[from-1].putPairs(msg.Pairs, p.n())
		p.cnt++
		p.checkWait()
	case MsgHelp:
		p.pendingHelp = append(p.pendingHelp, from)
		p.flushHelp()
	case MsgHelped:
		p.collectionHelp.putPairs(msg.Pairs, p.n())
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
		p.env.Send(q, MsgHelped{Pairs: p.collection0.pairs()})
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
	var dests []core.ProcessID
	if p.i() <= p.f() {
		for q := 1; q <= p.n(); q++ {
			dests = append(dests, core.ProcessID(q))
		}
	} else { // i == f+1
		for q := 1; q <= p.f(); q++ {
			dests = append(dests, core.ProcessID(q))
		}
	}
	if p.opts.UnbundledAcks {
		for _, d := range dests {
			for _, pr := range p.collection0.pairs() {
				p.env.Send(d, MsgC{Pairs: []VotePair{pr}})
			}
		}
		return
	}
	bundle := MsgC{Pairs: p.collection0.pairs()}
	for _, d := range dests {
		p.env.Send(d, bundle)
	}
}

// unionC is the union of every acknowledged collection received so far. The
// result is valid until the next call.
func (p *INBAC) unionC() voteSet {
	p.union.reset()
	for j := range p.collection1 {
		p.union.merge(p.collection1[j])
	}
	return p.union
}

// complete reports whether s contains a vote for every process.
func (p *INBAC) complete(s voteSet) bool { return s.holds(p.n()) }

// fullAcksHigh is the decision test for P in {Pf+1..Pn}: a correct
// acknowledgement from all f backups, each containing all n votes.
func (p *INBAC) fullAcksHigh() bool {
	for j := 0; j < p.f(); j++ {
		if !p.complete(p.collection1[j]) {
			return false
		}
	}
	return true
}

// fullAcksLow is the decision test for P in {P1..Pf}: acknowledgements from
// P1..Pf (all n votes each) and from Pf+1 (the votes of P1..Pf).
func (p *INBAC) fullAcksLow() bool {
	return p.fullAcksHigh() && p.collection1[p.f()].holds(p.f())
}

// decideTimeoutHigh is the time-2U handler for P in {Pf+1..Pn}: the state
// machine of the paper's Figure 1.
func (p *INBAC) decideTimeoutHigh() {
	p.phase = 2
	// Fold everything known into the aggregate this process would hand to
	// others when helping.
	p.collection0.merge(p.unionC())
	p.collection0.put(p.env.ID(), p.val)
	p.flushHelp()

	switch {
	case p.fullAcksHigh():
		p.hook(BranchFastDecide)
		p.decide(p.unionC().and())
	case p.cnt >= 1:
		p.proposeFrom(p.unionC())
	default:
		// No acknowledgement from any of P1..Pf: ask Pf+1..Pn for the
		// acknowledgements they received and wait for n-f answers in total.
		p.hook(BranchAskHelp)
		p.wait = true
		for q := p.f() + 1; q <= p.n(); q++ {
			p.env.Send(core.ProcessID(q), MsgHelp{})
		}
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
		p.decide(p.unionC().and())
		return
	}
	p.proposeFrom(p.unionC())
}

// proposeFrom cons-proposes the AND of all n votes when the collection is
// complete and 0 otherwise (the paper: missing votes mean a failure, so it
// is safe to propose abort).
func (p *INBAC) proposeFrom(u voteSet) {
	p.proposed = true
	if p.complete(u) {
		p.hook(BranchConsAND)
		p.uc.Propose(u.and())
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
		p.decide(p.unionC().and())
	case p.cnt >= 1:
		p.proposeFrom(p.unionC())
	default:
		p.proposed = true
		if p.complete(p.collectionHelp) {
			p.hook(BranchHelpConsAND)
			p.uc.Propose(p.collectionHelp.and())
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
