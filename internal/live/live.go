// Package live runs the same core.Module protocol code the simulator runs,
// but over real time and real transports: handlers serialized per instance,
// every timer of the process on one deadline heap (deadline.go), and
// pluggable message delivery (an in-memory mesh or TCP). Both transports
// speak the hand-rolled binary wire codec (core.Wire + this package's type-ID
// registry); the TCP transport additionally packs the envelopes of many
// concurrent protocol instances into one length-prefixed frame per flush.
//
// Time mapping: one core.Ticks equals one millisecond. Env.U() is the
// configured timeout unit (the "known upper bound on message delay" the
// protocols' timers are multiples of); choose it comfortably above the
// actual network round-trip, exactly as a practitioner would configure a
// commit timeout — the paper's indulgent protocols stay correct even when
// the bound is violated, which is their point.
package live

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/obs"
)

// TickDuration is the real-time length of one core.Ticks.
const TickDuration = time.Millisecond

// Envelope is the wire unit: a protocol message routed to a module instance
// of one transaction at one process. HLC is the sender's hybrid logical
// clock stamp, assigned by the transport at send time and merged into the
// receiver's clock on delivery; it rides the envelope header on both the
// TCP frame codec and the mesh (frame version 0x02), giving every dump a
// happens-before order and the auditor a per-hop delay observation. It is
// set only while the sender's flight recorder or an auditor is on
// (obs.SendStamp): from an unobserved process it is 0, which a receiver
// neither merges nor records as a causal edge.
type Envelope struct {
	TxID string
	From core.ProcessID
	To   core.ProcessID
	Path string // module instance path ("" = root)
	HLC  obs.HLC
	Msg  core.Message
}

// Transport delivers envelopes between processes. Implementations must be
// safe for concurrent Send and must not drop messages (perfect links; the
// paper's channels do not lose messages — TCP and in-memory channels both
// qualify).
type Transport interface {
	// Send transmits e to e.To. Protocol handlers call it, the process's one
	// timer goroutine among them, so it must not block on the network nor
	// wait for the receiver to process the message.
	Send(e Envelope) error
	// SetHandler installs the delivery callback. Must be called before any
	// Send reaches this process.
	SetHandler(func(Envelope))
	// Close releases resources.
	Close() error
}

// Instance is one process's run of one commit protocol instance.
type Instance struct {
	id    core.ProcessID
	n, f  int
	u     core.Ticks
	txID  string
	label string // protocol name, for metrics; "" if the caller set none

	sendE func(Envelope) error

	mu         sync.Mutex
	start      time.Duration // Start's time, since deadlineEpoch
	running    bool
	closed     bool
	final      bool // the root decided: outcome holds the decision
	fire       bool // the running handler decided: leave calls decided
	outcome    core.Value
	pending    []Envelope // deliveries that arrived before Start
	root       core.Module
	env        liveEnv       // the root's Env (see Start)
	child      submodule     // the one module registered below the root, if any
	selfq      []Envelope    // the running handler's self-sends (see drainSelf)
	decidePath string        // first "decide-path" annotation, for the auditor (see Annotate)
	done       chan struct{} // made by a Done or Wait before the decision, closed at it
	decided    Decider       // Config.Decided

	// Guarded by deadlines.mu: how many deadlines of this instance are on the
	// heap, and whether Close released them.
	armed    int
	released bool
}

// submodule is the module registered below the root, with its Env, which
// holds its path.
type submodule struct {
	env childEnv
	m   core.Module
}

// Config parameterizes an Instance.
type Config struct {
	ID   core.ProcessID
	N, F int
	// U is the timeout unit in ticks (milliseconds).
	U    core.Ticks
	TxID string
	// Label names the protocol for metrics and traces (optional).
	Label string
	// New builds the root protocol module.
	New func(id core.ProcessID) core.Module
	// Send transmits an envelope (bound to the process's transport).
	Send func(Envelope) error
	// Decided, if set, is told the decision once, as soon as the handler
	// that decided has released the instance and on its goroutine (a
	// delivery, a timer, Start or Adopt), so it must not block. It saves the
	// host a goroutine waiting on Done per instance.
	Decided Decider
}

// Decider is told an instance's decision (see Config.Decided). A host that
// keeps a record per transaction makes the record its Decider, and pays no
// closure per instance.
type Decider interface {
	Decided(v core.Value)
}

// NewInstance builds (but does not start) an instance.
func NewInstance(cfg Config) *Instance {
	inst := new(Instance)
	inst.Init(cfg)
	return inst
}

// Init builds an unused instance in place, for a host that allocates it
// inside a record of its own; NewInstance is the same on a fresh one.
func (inst *Instance) Init(cfg Config) {
	inst.id, inst.n, inst.f, inst.u = cfg.ID, cfg.N, cfg.F, cfg.U
	inst.txID, inst.label, inst.sendE, inst.decided = cfg.TxID, cfg.Label, cfg.Send, cfg.Decided
	inst.root = cfg.New(cfg.ID)
}

// TxID is the transaction the instance runs.
func (inst *Instance) TxID() string { return inst.txID }

// module returns the module registered at path, nil if none is.
func (inst *Instance) module(path string) core.Module {
	switch {
	case path == "":
		return inst.root
	case inst.child.m != nil && inst.child.env.path == path:
		return inst.child.m
	}
	return nil
}

// leave ends a handler: it delivers the handler's self-sends, releases the
// instance and, if a handler decided, reports the decision to the host
// outside the lock.
func (inst *Instance) leave() {
	inst.drainSelf()
	fire := inst.fire
	inst.fire = false
	inst.mu.Unlock()
	if fire && inst.decided != nil {
		inst.decided.Decided(inst.outcome)
	}
}

// drainSelf delivers what the handler that just returned sent to its own
// process: in sending order, each message a handler call of its own (so
// handlers stay atomic), what those calls send to self included, and all of
// it before any other event of the instance. The paper's footnote 10 makes a
// self-send a local step, and the simulator delivers it before any timer; a
// protocol may rely on that — INBAC's decideTimeoutLow does, for safety: a
// backup that acknowledged has its own acknowledgement.
func (inst *Instance) drainSelf() {
	for i := 0; i < len(inst.selfq); i++ { // a delivery may append
		e := inst.selfq[i]
		if m := inst.module(e.Path); m != nil {
			m.Deliver(e.From, e.Msg)
		}
	}
	clear(inst.selfq)
	inst.selfq = inst.selfq[:0]
}

// Start initializes the module tree, proposes the vote, and flushes any
// messages that raced ahead of it. Call it once at most; a closed instance ignores it.
func (inst *Instance) Start(vote core.Value) {
	inst.mu.Lock()
	defer inst.leave()
	if inst.closed {
		return
	}
	inst.start = time.Since(deadlineEpoch)
	if obs.Default.Enabled() {
		obs.Default.Record(obs.Event{
			Kind: obs.EvVote, TxID: inst.txID, Proc: inst.id,
			Arg: int64(vote), Note: vote.String(),
		})
	}
	if a := obs.ActiveAuditor(); a != nil {
		a.Vote(inst.txID, inst.id, inst.n, inst.label, vote,
			time.Duration(inst.u)*TickDuration)
	}
	inst.env = liveEnv{inst: inst}
	inst.root.Init(&inst.env)
	inst.running = true
	inst.root.Propose(vote)
	if a := obs.ActiveAuditor(); a != nil {
		// The instance's clock started at the top: a stall since then makes
		// every deadline of this process early for the others.
		a.ObserveLag(inst.txID, time.Since(deadlineEpoch)-inst.start)
	}
	for _, e := range inst.pending {
		inst.drainSelf()
		inst.handle(e)
	}
	inst.pending = nil
}

// handle runs the Deliver handler of an envelope from another process. The
// auditor takes the envelope's delay up to here, not up to the transport's
// receipt: what waited behind a stalled process while its deadline passed was
// late, whatever the network did.
func (inst *Instance) handle(e Envelope) {
	m := inst.module(e.Path)
	if m == nil {
		return
	}
	if a := obs.ActiveAuditor(); a != nil {
		a.ObserveRecv(e.TxID, e.HLC, obs.ProcessClock.Tick())
	}
	m.Deliver(e.From, e.Msg)
}

// Deliver routes an incoming envelope to its module instance. Messages that
// arrive before Start are buffered (perfect links lose nothing); unknown
// module paths after Start cannot occur because modules register their whole
// tree in Init (the simulator's stricter kernel asserts this).
func (inst *Instance) Deliver(e Envelope) {
	inst.mu.Lock()
	defer inst.leave()
	if inst.closed {
		return
	}
	if !inst.running {
		inst.pending = append(inst.pending, e)
		return
	}
	inst.handle(e)
}

// Done is closed once the root decision is available; any number of
// goroutines may wait on it. The channel is made by the first call before
// the decision, so a host that takes the decision from Config.Decided, or
// waits only once it is taken, never pays for one.
func (inst *Instance) Done() <-chan struct{} {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.done == nil {
		if inst.final {
			return decidedDone
		}
		inst.done = make(chan struct{})
	}
	return inst.done
}

// decidedDone is the Done of every instance that decided before anyone asked.
var decidedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Outcome returns the decision; valid only after Done is closed or
// Config.Decided was called.
func (inst *Instance) Outcome() core.Value { return inst.outcome }

// Wait blocks until the decision or ctx expiry.
func (inst *Instance) Wait(ctx context.Context) (core.Value, error) {
	select {
	case <-inst.Done():
		return inst.outcome, nil
	case <-ctx.Done():
		return 0, fmt.Errorf("commit instance %s at %v: %w", inst.txID, inst.id, ctx.Err())
	}
}

// Adopt decides v on the word of a process that already decided it — what
// is left to a straggler whose peers have retired the transaction and can
// no longer run the protocol with it. Agreement makes any decided value the
// decision. No-op once the instance decided; the modules keep running (and
// helping others) until Close.
func (inst *Instance) Adopt(v core.Value) {
	inst.mu.Lock()
	defer inst.leave()
	if !inst.running || inst.closed || inst.final {
		return
	}
	env := &liveEnv{inst: inst}
	env.Annotate("decide-path", "adopted")
	env.Decide(v)
}

// Close ends the instance: no handler runs any more, and the deadline heap
// lets go of the timers it armed.
func (inst *Instance) Close() {
	inst.mu.Lock()
	inst.closed = true
	inst.mu.Unlock()
	releaseDeadlines(inst)
}

// timeout runs the handler of a timer the instance armed (see SetTimerAt),
// due at when.
func (inst *Instance) timeout(path string, tag int, when time.Duration) {
	inst.mu.Lock()
	defer inst.leave()
	if inst.closed {
		return
	}
	if m := inst.module(path); m != nil {
		if obs.Default.Enabled() {
			obs.Default.Record(obs.Event{
				Kind: obs.EvTimerFire, TxID: inst.txID, Proc: inst.id,
				Path: path, Tag: tag, Arg: int64(inst.now()),
			})
		}
		m.Timeout(tag)
		if a := obs.ActiveAuditor(); a != nil {
			// Taken at the end: what a handler stalled half-way sends on is
			// late as well.
			a.ObserveLag(inst.txID, time.Since(deadlineEpoch)-when)
		}
	}
}

// now returns elapsed virtual time in ticks (milliseconds since Start).
func (inst *Instance) now() core.Ticks {
	return core.Ticks((time.Since(deadlineEpoch) - inst.start) / TickDuration)
}

// liveEnv implements core.Env over an Instance.
type liveEnv struct {
	inst *Instance
	path string
}

func (e *liveEnv) ID() core.ProcessID { return e.inst.id }
func (e *liveEnv) N() int             { return e.inst.n }
func (e *liveEnv) F() int             { return e.inst.f }
func (e *liveEnv) U() core.Ticks      { return e.inst.u }
func (e *liveEnv) Now() core.Ticks    { return e.inst.now() }

func (e *liveEnv) Send(to core.ProcessID, m core.Message) {
	env := Envelope{TxID: e.inst.txID, From: e.inst.id, To: to, Path: e.path, Msg: m}
	if to == e.inst.id {
		if obs.Default.Enabled() {
			// Self-sends never reach a transport (the paper's footnote 10:
			// not a network message), so trace them here.
			env.HLC = obs.ProcessClock.Tick()
			obs.Default.Record(obs.Event{
				Kind: obs.EvSend, TxID: env.TxID, Proc: env.From, Peer: to,
				Path: e.path, Note: "self", HLC: env.HLC,
			})
		}
		// Local delivery, once the running handler returned (see drainSelf).
		e.inst.selfq = append(e.inst.selfq, env)
		return
	}
	if a := obs.ActiveAuditor(); a != nil {
		a.ObserveSend(env.TxID)
	}
	// Transport errors mean a peer is unreachable; the protocols treat
	// silence as failure, which is exactly the crash/partition semantics.
	_ = e.inst.sendE(env)
}

// SetTimerAt is only ever called from inside a handler, which holds inst.mu.
// A tick already past fires as soon as the handler arming it has left.
func (e *liveEnv) SetTimerAt(t core.Ticks, tag int) {
	if obs.Default.Enabled() {
		obs.Default.Record(obs.Event{
			Kind: obs.EvTimerArm, TxID: e.inst.txID, Proc: e.inst.id,
			Path: e.path, Tag: tag, Arg: int64(t),
		})
	}
	arm(deadline{
		when: e.inst.start + time.Duration(t)*TickDuration,
		inst: e.inst, path: e.path, tag: tag,
	})
}

func (e *liveEnv) Decide(v core.Value) {
	// Child decisions are routed via Register's callback; the root decides
	// once. Decide runs inside a handler, so inst.mu is held.
	if e.path != "" || e.inst.final {
		return
	}
	if obs.Default.Enabled() {
		obs.Default.Record(obs.Event{
			Kind: obs.EvDecide, TxID: e.inst.txID, Proc: e.inst.id,
			Arg: int64(v), Note: v.String(),
		})
	}
	if a := obs.ActiveAuditor(); a != nil {
		// The sticky decide-path annotation is stable to read here.
		a.Decide(e.inst.txID, e.inst.id, v, e.inst.decidePath)
	}
	e.inst.outcome, e.inst.final, e.inst.fire = v, true, true
	if e.inst.done != nil {
		close(e.inst.done)
	}
}

// Annotate implements core.Annotator: protocol branch points land in the
// flight recorder (when enabled) and the metrics registry (always). The
// "decide-path" key additionally sticks to the instance (first one wins)
// so that the live auditor, its only reader, can name in a violation
// report the branch that produced the decision. Called from inside
// handlers, so inst.mu is already held.
func (e *liveEnv) Annotate(key, note string) {
	if key == "decide-path" {
		if e.inst.decidePath == "" {
			e.inst.decidePath = note
		}
		decidePathCounter(e.inst.label, note).Add(1)
	}
	if obs.Default.Enabled() {
		obs.Default.Record(obs.Event{
			Kind: obs.EvAnnotate, TxID: e.inst.txID, Proc: e.inst.id,
			Path: e.path, Note: key + "=" + note,
		})
	}
}

// decidePaths maps a (label, note) pair to its "decide_path.<label>.<note>"
// counter. It is copied on write, so a decision finds its counter with no
// lock taken and no string built; the pairs are a protocol's few decide
// paths, so it stops growing early.
var (
	decidePaths   atomic.Pointer[map[[2]string]*obs.Counter]
	decidePathsMu sync.Mutex // serializes the copies
)

// decidePathCounter returns the counter of decisions taken on decide path
// note by instances labelled label ("unlabeled" when label is "").
func decidePathCounter(label, note string) *obs.Counter {
	k := [2]string{label, note}
	if m := decidePaths.Load(); m != nil && (*m)[k] != nil {
		return (*m)[k]
	}
	decidePathsMu.Lock()
	defer decidePathsMu.Unlock()
	m := make(map[[2]string]*obs.Counter)
	if old := decidePaths.Load(); old != nil {
		maps.Copy(m, *old)
	}
	if label == "" {
		label = "unlabeled"
	}
	m[k] = obs.M.Counter("decide_path." + label + "." + note) // the registry's one counter of that name
	decidePaths.Store(&m)
	return m[k]
}

// Register is only ever called from inside Init/handlers (inst.mu held). A
// module tree has at most one child (see core.Env), which goes in the
// instance's place for it, so registering it allocates nothing.
func (e *liveEnv) Register(name string, child core.Module, onDecide func(core.Value)) {
	if e.inst.child.m != nil {
		panic(fmt.Sprintf("live: %s at %v registered a second child module, %q", e.inst.label, e.inst.id, name))
	}
	e.inst.child = submodule{env: childEnv{liveEnv: liveEnv{inst: e.inst, path: name}, onDecide: onDecide}, m: child}
	child.Init(&e.inst.child.env)
}

// childEnv overrides Decide to invoke the parent's callback.
type childEnv struct {
	liveEnv
	onDecide func(core.Value)
}

func (e *childEnv) Decide(v core.Value) { e.onDecide(v) }

// ErrClosed is returned by transports after Close.
var ErrClosed = errors.New("live: transport closed")
