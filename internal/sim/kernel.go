// Package sim is a deterministic discrete-event simulator of the message
// passing system model of the paper (section 2): n processes P1..Pn, perfect
// point-to-point channels, synchronous computation, and either synchronous or
// eventually synchronous communication.
//
// The simulator executes real protocol code (core.Module implementations)
// against an adversary-controlled network Policy and measures exactly the two
// complexity metrics the paper studies (section 2.4):
//
//   - the number of messages (self-addressed messages are free, footnote 10);
//   - the number of message delays, measured both as virtual time in units of
//     U in executions where every message takes exactly U (Lamport counting)
//     and as causal message-chain depth.
//
// Executions are fully deterministic: events are ordered by (time, kind,
// sequence number), with message deliveries handled before timeouts at equal
// times (paper Appendix A, remark (b)).
package sim

import (
	"container/heap"
	"fmt"
	"sort"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
)

// DefaultU is the default known upper bound on message delay, in ticks.
// It is larger than 1 so that adversaries can inject sub-U jitter.
const DefaultU core.Ticks = 4

// Policy is the adversary: it controls message delays, crash times, and
// partial-broadcast message drops (a process crashing in the middle of a
// multicast, which the paper's lower-bound constructions rely on).
//
// Any nil field takes its benign default. The zero Policy is the nice
// execution network: every message takes exactly U, nobody crashes.
type Policy struct {
	// Delay returns the absolute delivery tick of a message sent by src to
	// dst at sentAt (nthSend is src's lifetime send counter, useful to
	// single out one message of a broadcast). nil means sentAt+U (the
	// synchronous bound, taken exactly). Returning a value greater than
	// sentAt+U constitutes a network failure (paper section 2.2). Values
	// at or before sentAt are clamped to sentAt+1. Delivery must be
	// eventual: returning a tick beyond the horizon makes the run report
	// a horizon violation rather than modeling message loss.
	Delay func(src, dst core.ProcessID, sentAt core.Ticks, nthSend int) core.Ticks

	// Crash returns the tick at which p crashes, or core.NoCrash. A crashed
	// process executes no event at or after its crash tick and therefore
	// sends nothing from then on (paper section 2.1).
	Crash func(p core.ProcessID) core.Ticks

	// Drop suppresses an individual send, modeling a crash in the middle of
	// a broadcast (the suppressed suffix of the multicast). It is the
	// caller's responsibility to also schedule a crash for src just after;
	// dropping messages from a process that stays alive would violate the
	// perfect-links assumption, so Run records it as a network failure.
	Drop func(src, dst core.ProcessID, sentAt core.Ticks, nthSend int) bool
}

func (p Policy) delay(src, dst core.ProcessID, sentAt core.Ticks, nth int, u core.Ticks) core.Ticks {
	at := sentAt + u
	if p.Delay != nil {
		at = p.Delay(src, dst, sentAt, nth)
	}
	if at <= sentAt {
		at = sentAt + 1
	}
	return at
}

func (p Policy) crashTick(id core.ProcessID) core.Ticks {
	if p.Crash == nil {
		return core.NoCrash
	}
	return p.Crash(id)
}

// Config describes one execution.
type Config struct {
	N int // number of processes (n >= 1)
	F int // resilience parameter f, 1 <= f <= n-1

	// U is the known upper bound on message delay in ticks; 0 means DefaultU.
	U core.Ticks

	// Votes holds the proposal of each process; Votes[i] is P(i+1)'s vote.
	// nil means everybody votes Commit (a nice execution, given a benign
	// Policy).
	Votes []core.Value

	// New builds the protocol instance for one process. Required.
	New func(id core.ProcessID) core.Module

	// Policy is the network/crash adversary. Zero value = nice network.
	Policy Policy

	// StopWhenDecided stops the run as soon as every correct process has
	// decided (messages still in flight are abandoned). Default (false
	// value) is interpreted as true; set RunToQuiescence to process every
	// queued event instead.
	RunToQuiescence bool

	// MaxTicks and MaxEvents bound the execution; a run that exhausts
	// either without the required decisions reports HorizonReached.
	// Zero selects generous defaults.
	MaxTicks  core.Ticks
	MaxEvents int

	// Trace, when non-nil, records every event.
	Trace *Trace
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.U == 0 {
		cfg.U = DefaultU
	}
	if cfg.MaxTicks == 0 {
		cfg.MaxTicks = 1 << 24
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 4 << 20
	}
	if cfg.Votes == nil {
		cfg.Votes = make([]core.Value, cfg.N)
		for i := range cfg.Votes {
			cfg.Votes[i] = core.Commit
		}
	}
	return cfg
}

type evKind uint8

// Event kinds, in same-tick processing order: deliveries before timeouts
// (paper Appendix A, remark (b)).
const (
	evDeliver evKind = iota
	evTimer
)

type event struct {
	at   core.Ticks
	kind evKind
	seq  int64 // global tie-breaker: creation order

	to   core.ProcessID
	path string // module instance path; "" is the root module

	// evDeliver fields.
	from   core.ProcessID
	msg    core.Message
	depth  int // causal depth the message carries
	sentAt core.Ticks

	// evTimer fields.
	tag int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) peek() *event { return h[0] }

var _ heap.Interface = (*eventHeap)(nil)

type modSlot struct {
	mod      core.Module
	onDecide func(core.Value) // nil for the root module
}

type proc struct {
	k       *kernel
	id      core.ProcessID
	crashAt core.Ticks
	modules map[string]*modSlot

	depth     int // causal message-chain depth reached so far
	sendCount int // lifetime sends, for Policy callbacks

	decided      bool
	decision     core.Value
	decidedAt    core.Ticks
	decidedDepth int
}

type kernel struct {
	cfg   Config
	now   core.Ticks
	seq   int64
	queue eventHeap
	procs []*proc // index 0 unused; procs[i] is Pi

	messagesSent   int
	sentByPath     map[string]int
	arrivals       []core.Ticks // when each network message arrived
	netFailure     bool
	violations     []string
	decidedCorrect int
	correctTotal   int
	events         int
}

func (k *kernel) violate(format string, args ...any) {
	k.violations = append(k.violations, fmt.Sprintf(format, args...))
}

func (k *kernel) push(e *event) {
	e.seq = k.seq
	k.seq++
	heap.Push(&k.queue, e)
}

// simEnv implements core.Env for one module instance at one process.
type simEnv struct {
	p    *proc
	path string
}

func (e *simEnv) ID() core.ProcessID { return e.p.id }
func (e *simEnv) N() int             { return e.p.k.cfg.N }
func (e *simEnv) F() int             { return e.p.k.cfg.F }
func (e *simEnv) U() core.Ticks      { return e.p.k.cfg.U }
func (e *simEnv) Now() core.Ticks    { return e.p.k.now }

func (e *simEnv) Send(to core.ProcessID, m core.Message) {
	k := e.p.k
	if to < 1 || int(to) > k.cfg.N {
		k.violate("%v sent %s to out-of-range process %v", e.p.id, m.Kind(), to)
		return
	}
	nth := e.p.sendCount
	e.p.sendCount++
	if to == e.p.id {
		// Local message: free and immediate (footnote 10); carries the
		// sender's depth without the +1 of a network hop.
		k.push(&event{at: k.now, kind: evDeliver, to: to, path: e.path,
			from: e.p.id, msg: m, depth: e.p.depth, sentAt: k.now})
		k.traceSend(e.p.id, to, e.path, m, true)
		return
	}
	if k.cfg.Policy.Drop != nil && k.cfg.Policy.Drop(e.p.id, to, k.now, nth) {
		// A dropped send models a crash mid-broadcast; if the sender never
		// crashes, the perfect-links assumption is broken, which we treat
		// (conservatively) as a network failure for property checking.
		if e.p.crashAt == core.NoCrash {
			k.netFailure = true
		}
		k.traceDrop(e.p.id, to, e.path, m)
		return
	}
	k.messagesSent++
	k.sentByPath[e.path]++
	at := k.cfg.Policy.delay(e.p.id, to, k.now, nth, k.cfg.U)
	if at > k.now+k.cfg.U {
		k.netFailure = true
	}
	k.push(&event{at: at, kind: evDeliver, to: to, path: e.path,
		from: e.p.id, msg: m, depth: e.p.depth + 1, sentAt: k.now})
	k.traceSend(e.p.id, to, e.path, m, false)
}

func (e *simEnv) SetTimerAt(t core.Ticks, tag int) {
	k := e.p.k
	if t <= k.now {
		t = k.now
	}
	k.push(&event{at: t, kind: evTimer, to: e.p.id, path: e.path, tag: tag})
}

func (e *simEnv) Decide(v core.Value) {
	k := e.p.k
	slot := e.p.modules[e.path]
	if slot.onDecide != nil {
		slot.onDecide(v)
		return
	}
	if !v.Valid() {
		k.violate("%v decided invalid value %d", e.p.id, v)
		return
	}
	if e.p.decided {
		k.violate("integrity: %v decided twice (%v then %v)", e.p.id, e.p.decision, v)
		return
	}
	e.p.decided = true
	e.p.decision = v
	e.p.decidedAt = k.now
	e.p.decidedDepth = e.p.depth
	if e.p.crashAt == core.NoCrash {
		k.decidedCorrect++
	}
	k.traceDecide(e.p.id, v)
}

func (e *simEnv) Register(name string, child core.Module, onDecide func(core.Value)) {
	if name == "" {
		e.p.k.violate("%v registered a child module with an empty name", e.p.id)
		return
	}
	if len(e.p.modules) > 1 {
		e.p.k.violate("%v registered a second child module, %q", e.p.id, name)
		return
	}
	e.p.modules[name] = &modSlot{mod: child, onDecide: onDecide}
	child.Init(&simEnv{p: e.p, path: name})
}

// Run executes one complete run of the protocol under cfg and returns its
// measured Result. Run never blocks: non-terminating executions are cut at
// the configured horizon and reported as such.
func Run(cfg Config) *Result {
	c := cfg.withDefaults()
	if c.N < 1 {
		panic("sim: Config.N must be at least 1")
	}
	if c.F < 0 || c.F > c.N-1 {
		panic(fmt.Sprintf("sim: Config.F must be in [0, n-1], got f=%d n=%d", c.F, c.N))
	}
	if c.New == nil {
		panic("sim: Config.New is required")
	}
	if len(c.Votes) != c.N {
		panic(fmt.Sprintf("sim: len(Votes)=%d, want n=%d", len(c.Votes), c.N))
	}

	k := &kernel{cfg: c, sentByPath: make(map[string]int)}
	k.procs = make([]*proc, c.N+1)
	for i := 1; i <= c.N; i++ {
		id := core.ProcessID(i)
		p := &proc{k: k, id: id, crashAt: c.Policy.crashTick(id), modules: make(map[string]*modSlot)}
		k.procs[i] = p
		if p.crashAt == core.NoCrash {
			k.correctTotal++
		}
		p.modules[""] = &modSlot{mod: c.New(id)}
		p.modules[""].mod.Init(&simEnv{p: p, path: ""})
	}

	// Propose events: all processes start spontaneously at tick 0 (the
	// "fair comparison" convention of the paper's Table 5, footnote 13).
	for i := 1; i <= c.N; i++ {
		p := k.procs[i]
		if p.crashAt <= 0 {
			continue // crashed "before sending any message"
		}
		p.modules[""].mod.Propose(c.Votes[i-1])
	}

	horizon := false
	for k.queue.Len() > 0 {
		if !c.RunToQuiescence && k.decidedCorrect == k.correctTotal {
			break
		}
		e := heap.Pop(&k.queue).(*event)
		if e.at < k.now {
			panic("sim: time went backwards")
		}
		k.now = e.at
		k.events++
		if k.now > c.MaxTicks || k.events > c.MaxEvents {
			horizon = true
			break
		}
		p := k.procs[e.to]
		if p.crashAt <= k.now {
			continue // crashed processes take no step
		}
		slot, ok := p.modules[e.path]
		if !ok {
			k.violate("%v received event for unknown module %q", p.id, e.path)
			continue
		}
		switch e.kind {
		case evDeliver:
			if e.depth > p.depth {
				p.depth = e.depth
			}
			if e.from != e.to {
				k.arrivals = append(k.arrivals, k.now)
			}
			k.traceDeliver(e)
			slot.mod.Deliver(e.from, e.msg)
		case evTimer:
			k.traceTimer(e)
			slot.mod.Timeout(e.tag)
		}
	}

	return k.result(horizon)
}

func (k *kernel) result(horizon bool) *Result {
	r := &Result{
		Execution: nbac.Execution{
			N:              k.cfg.N,
			Votes:          append([]core.Value(nil), k.cfg.Votes...),
			Decisions:      make(map[core.ProcessID]core.Value),
			Crashed:        make(map[core.ProcessID]bool),
			NetworkFailure: k.netFailure,
			HorizonReached: horizon,
			Violations:     k.violations,
		},
		F: k.cfg.F, U: k.cfg.U,
		DecisionTick:  make(map[core.ProcessID]core.Ticks),
		DecisionDepth: make(map[core.ProcessID]int),
		MessagesSent:  k.messagesSent,
		SentByPath:    k.sentByPath,
	}
	for i := 1; i <= k.cfg.N; i++ {
		p := k.procs[i]
		if p.crashAt != core.NoCrash {
			r.Crashed[p.id] = true
			r.AnyCrash = true
		}
		if p.decided {
			r.Decisions[p.id] = p.decision
			r.DecisionTick[p.id] = p.decidedAt
			r.DecisionDepth[p.id] = p.decidedDepth
			if p.decidedAt > r.LastDecisionTick {
				r.LastDecisionTick = p.decidedAt
			}
			if p.decidedDepth > r.MaxDecisionDepth {
				r.MaxDecisionDepth = p.decidedDepth
			}
		}
	}
	r.MessagesToDecide = k.countArrivals(r.LastDecisionTick)
	return r
}

func (k *kernel) countArrivals(cutoff core.Ticks) int {
	n := 0
	for _, at := range k.arrivals {
		if at <= cutoff {
			n++
		}
	}
	return n
}

// Trace hooks (no-ops when tracing is off).

func (k *kernel) traceSend(from, to core.ProcessID, path string, m core.Message, self bool) {
	if k.cfg.Trace != nil {
		k.cfg.Trace.add(Entry{At: k.now, Op: OpSend, Proc: from, Peer: to, Path: path, Msg: m.Kind(), Self: self})
	}
}

func (k *kernel) traceDrop(from, to core.ProcessID, path string, m core.Message) {
	if k.cfg.Trace != nil {
		k.cfg.Trace.add(Entry{At: k.now, Op: OpDrop, Proc: from, Peer: to, Path: path, Msg: m.Kind()})
	}
}

func (k *kernel) traceDeliver(e *event) {
	if k.cfg.Trace != nil {
		k.cfg.Trace.add(Entry{At: k.now, Op: OpDeliver, Proc: e.to, Peer: e.from, Path: e.path, Msg: e.msg.Kind(), Depth: e.depth})
	}
}

func (k *kernel) traceTimer(e *event) {
	if k.cfg.Trace != nil {
		k.cfg.Trace.add(Entry{At: k.now, Op: OpTimeout, Proc: e.to, Path: e.path, Tag: e.tag})
	}
}

func (k *kernel) traceDecide(p core.ProcessID, v core.Value) {
	if k.cfg.Trace != nil {
		k.cfg.Trace.add(Entry{At: k.now, Op: OpDecide, Proc: p, Decision: &v})
	}
}

// sortedPIDs returns process IDs in ascending order, for deterministic output.
func sortedPIDs[V any](m map[core.ProcessID]V) []core.ProcessID {
	out := make([]core.ProcessID, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
