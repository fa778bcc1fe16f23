package sim

import (
	"strings"
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
)

// floodMsg is the single message type of the test protocol.
type floodMsg struct{ V core.Value }

func (floodMsg) Kind() string { return "FLOOD" }

// flood is a minimal protocol used to validate kernel mechanics: every
// process broadcasts its vote at time 0 and decides the AND of everything it
// has seen when its timer fires at U.
type flood struct {
	env  core.Env
	and  core.Value
	got  int
	need int
}

func (p *flood) Init(env core.Env) { p.env = env; p.and = core.Commit }
func (p *flood) Propose(v core.Value) {
	p.and = p.and.And(v)
	p.need = p.env.N()
	for i := 1; i <= p.env.N(); i++ {
		p.env.Send(core.ProcessID(i), floodMsg{V: v}) // includes self
	}
	p.env.SetTimerAt(p.env.U(), 1)
}
func (p *flood) Deliver(from core.ProcessID, m core.Message) {
	p.and = p.and.And(m.(floodMsg).V)
	p.got++
}
func (p *flood) Timeout(tag int) { p.env.Decide(p.and) }

func newFlood(core.ProcessID) core.Module { return &flood{} }

func TestKernelNiceExecutionCounts(t *testing.T) {
	n := 5
	r := Run(Config{N: n, F: 2, New: newFlood})
	if !r.Nice() {
		t.Fatalf("expected a nice execution, got %v", r)
	}
	if v, ok := r.Decision(); !ok || v != core.Commit {
		t.Fatalf("expected unanimous commit, got %v", r)
	}
	// Each process sends n-1 network messages (self-send is free).
	if want := n * (n - 1); r.MessagesSent != want {
		t.Errorf("MessagesSent = %d, want %d", r.MessagesSent, want)
	}
	if want := n * (n - 1); r.MessagesToDecide != want {
		t.Errorf("MessagesToDecide = %d, want %d", r.MessagesToDecide, want)
	}
	if got := r.DelayUnits(); got != 1 {
		t.Errorf("DelayUnits = %d, want 1", got)
	}
	if got := r.MaxDecisionDepth; got != 1 {
		t.Errorf("MaxDecisionDepth = %d, want 1", got)
	}
	if !r.SolvesNBAC() {
		t.Errorf("nice execution must solve NBAC: %v", r)
	}
}

func TestKernelAbortVote(t *testing.T) {
	votes := []core.Value{core.Commit, core.Abort, core.Commit}
	r := Run(Config{N: 3, F: 1, Votes: votes, New: newFlood})
	if v, ok := r.Decision(); !ok || v != core.Abort {
		t.Fatalf("expected unanimous abort, got %v", r)
	}
	if !r.Validity() {
		t.Errorf("validity must hold: %v", r)
	}
}

// timerOrder checks remark (b) of the paper's pseudocode conventions:
// deliveries at tick T are handled before timeouts at tick T.
type timerOrder struct {
	env      core.Env
	sawMsg   bool
	msgFirst bool
}

func (p *timerOrder) Init(env core.Env) { p.env = env }
func (p *timerOrder) Propose(v core.Value) {
	if p.env.ID() == 1 {
		p.env.Send(2, floodMsg{V: v})
	}
	p.env.SetTimerAt(p.env.U(), 7)
}
func (p *timerOrder) Deliver(from core.ProcessID, m core.Message) { p.sawMsg = true }
func (p *timerOrder) Timeout(tag int) {
	if tag != 7 {
		panic("wrong tag")
	}
	p.msgFirst = p.sawMsg
	p.env.Decide(core.Commit)
}

func TestKernelDeliveryBeforeTimeoutAtSameTick(t *testing.T) {
	mods := make(map[core.ProcessID]*timerOrder)
	r := Run(Config{N: 2, F: 1, New: func(id core.ProcessID) core.Module {
		m := &timerOrder{}
		mods[id] = m
		return m
	}})
	if !mods[2].msgFirst {
		t.Fatalf("delivery at tick U must be handled before the timeout at tick U; result %v", r)
	}
}

func TestKernelCrashStopsProcess(t *testing.T) {
	r := Run(Config{N: 3, F: 2, New: newFlood,
		Policy: Policy{Crash: func(p core.ProcessID) core.Ticks {
			if p == 3 {
				return 0 // crashes before sending anything
			}
			return core.NoCrash
		}}})
	if !r.AnyCrash || r.Class() != nbac.CrashFailure {
		t.Fatalf("expected a crash-failure execution, got %v", r)
	}
	if _, ok := r.Decisions[3]; ok {
		t.Errorf("crashed process must not decide: %v", r)
	}
	// P3 crashed at 0, so only P1 and P2 sent: 2 * (n-1) = 4 messages.
	if r.MessagesSent != 4 {
		t.Errorf("MessagesSent = %d, want 4", r.MessagesSent)
	}
	// flood decides AND of what it saw; with P3 silent both survivors still
	// decide commit here (flood has no failure detection — that is fine,
	// flood promises nothing in crash executions).
	for _, p := range []core.ProcessID{1, 2} {
		if v := r.Decisions[p]; v != core.Commit {
			t.Errorf("%v decided %v, want commit", p, v)
		}
	}
}

func TestKernelNetworkFailureClassification(t *testing.T) {
	r := Run(Config{N: 2, F: 1, New: newFlood,
		Policy: Policy{Delay: func(s, d core.ProcessID, at core.Ticks, nth int) core.Ticks {
			return at + 3*DefaultU // all messages late: a network failure
		}}})
	if r.Class() != nbac.NetworkFailure {
		t.Fatalf("expected network-failure class, got %v (%v)", r.Class(), r)
	}
}

func TestKernelSelfSendImmediateAndFree(t *testing.T) {
	// With n=1 flood only self-sends: zero network messages, decision at U
	// with depth 0 (self messages add no causal hop).
	r := Run(Config{N: 1, F: 0, New: newFlood})
	if r.MessagesSent != 0 {
		t.Errorf("self sends must be free, got %d", r.MessagesSent)
	}
	if r.MaxDecisionDepth != 0 {
		t.Errorf("self sends must not add causal depth, got %d", r.MaxDecisionDepth)
	}
	if v, ok := r.Decision(); !ok || v != core.Commit {
		t.Fatalf("expected commit, got %v", r)
	}
}

// child/parent pair exercising Register routing.
type parentMod struct {
	env     core.Env
	child   *childMod
	got     core.Value
	decided bool
}
type childMod struct{ env core.Env }

func (c *childMod) Init(env core.Env) { c.env = env }
func (c *childMod) Propose(v core.Value) {
	for i := 1; i <= c.env.N(); i++ {
		c.env.Send(core.ProcessID(i), floodMsg{V: v})
	}
}
func (c *childMod) Deliver(from core.ProcessID, m core.Message) {
	c.env.Decide(m.(floodMsg).V) // child "decides" on first message
}
func (c *childMod) Timeout(tag int) {}

func (p *parentMod) Init(env core.Env) {
	p.env = env
	p.child = &childMod{}
	env.Register("uc", p.child, func(v core.Value) {
		if !p.decided {
			p.decided = true
			p.got = v
			p.env.Decide(v)
		}
	})
}
func (p *parentMod) Propose(v core.Value)                        { p.child.Propose(v) }
func (p *parentMod) Deliver(from core.ProcessID, m core.Message) {}
func (p *parentMod) Timeout(tag int)                             {}

func TestKernelSubModuleRoutingAndAccounting(t *testing.T) {
	n := 3
	r := Run(Config{N: n, F: 1, New: func(core.ProcessID) core.Module { return &parentMod{} }})
	if v, ok := r.Decision(); !ok || v != core.Commit {
		t.Fatalf("expected commit via child decide, got %v", r)
	}
	if r.SentByPath[""] != 0 {
		t.Errorf("root sent %d messages, want 0", r.SentByPath[""])
	}
	if want := n * (n - 1); r.SentByPath["uc"] != want {
		t.Errorf("child sent %d messages, want %d", r.SentByPath["uc"], want)
	}
	if r.ConsensusMessages() != n*(n-1) {
		t.Errorf("ConsensusMessages = %d, want %d", r.ConsensusMessages(), n*(n-1))
	}
}

// TestKernelSecondChildIsViolation: a module tree has at most one child
// (core.Env.Register), the one the live runtime holds in place.
func TestKernelSecondChildIsViolation(t *testing.T) {
	r := Run(Config{N: 2, F: 1, New: func(core.ProcessID) core.Module { return &twoChildren{} }})
	if len(r.Violations) != 2 || !strings.Contains(r.Violations[0], "second child") {
		t.Fatalf("a second child must be a violation at each process, got %v", r.Violations)
	}
}

// twoChildren is parentMod registering a second child beside "uc".
type twoChildren struct{ parentMod }

func (p *twoChildren) Init(env core.Env) {
	p.parentMod.Init(env)
	env.Register("uc2", &childMod{}, func(core.Value) {})
}

func TestKernelIntegrityDoubleDecide(t *testing.T) {
	r := Run(Config{N: 1, F: 0, New: func(core.ProcessID) core.Module { return &doubleDecider{} }})
	if len(r.Violations) == 0 {
		t.Fatalf("double decide must be recorded as an integrity violation")
	}
}

type doubleDecider struct{ env core.Env }

func (d *doubleDecider) Init(env core.Env) { d.env = env }
func (d *doubleDecider) Propose(v core.Value) {
	d.env.Decide(core.Commit)
	d.env.Decide(core.Abort)
}
func (d *doubleDecider) Deliver(core.ProcessID, core.Message) {}
func (d *doubleDecider) Timeout(int)                          {}

func TestKernelDeterminism(t *testing.T) {
	run := func() string {
		tr := &Trace{}
		Run(Config{N: 4, F: 1, New: newFlood, Trace: tr})
		return tr.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs produced different traces:\n%s\nvs\n%s", a, b)
	}
}

func TestCheckerContractEvaluation(t *testing.T) {
	nice := Run(Config{N: 3, F: 1, New: newFlood})
	if bad := nbac.Check(nbac.Contract{Name: "flood", CF: nbac.PropsNone, NF: nbac.PropsNone}, &nice.Execution); len(bad) != 0 {
		t.Errorf("nice execution should pass: %v", bad)
	}
	// flood violates termination in a crash execution? No: survivors decide.
	// But validity breaks: P3 votes abort then crashes before sending, and
	// survivors commit anyway.
	r := Run(Config{N: 3, F: 2,
		Votes: []core.Value{core.Commit, core.Commit, core.Abort},
		New:   newFlood,
		Policy: Policy{Crash: func(p core.ProcessID) core.Ticks {
			if p == 3 {
				return 0
			}
			return core.NoCrash
		}}})
	if bad := nbac.Check(nbac.Contract{Name: "flood", CF: nbac.PropV, NF: nbac.PropsNone}, &r.Execution); len(bad) == 0 {
		t.Errorf("expected a validity violation to be reported, got none (%v)", r)
	}
}
