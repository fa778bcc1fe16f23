package consensus

import (
	"math/rand"
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

// run executes the consensus module directly as the protocol under test.
func run(t *testing.T, cfg sim.Config) *sim.Result {
	t.Helper()
	if cfg.New == nil {
		cfg.New = func(core.ProcessID) core.Module { return New() }
	}
	return sim.Run(cfg)
}

// checkConsensus verifies Definition 5: agreement, and validity in the
// consensus sense (any decided value was proposed by some process).
func checkConsensus(t *testing.T, r *sim.Result) {
	t.Helper()
	if len(r.Violations) > 0 {
		t.Fatalf("violations: %v", r.Violations)
	}
	if !r.Agreement() {
		t.Fatalf("consensus agreement violated: %v", r.Decisions)
	}
	// Conservative superset: a process that crashed at tick 0 never actually
	// proposed, but the crash tick is not part of the result, so count every
	// vote as proposed.
	proposed := make(map[core.Value]bool)
	for _, v := range r.Votes {
		proposed[v] = true
	}
	if v, ok := r.Decision(); ok && !proposed[v] {
		t.Fatalf("consensus validity violated: decided %v, proposals %v", v, r.Votes)
	}
}

func TestConsensusAllProposeCommit(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		r := run(t, sim.Config{N: n, F: (n - 1) / 2})
		checkConsensus(t, r)
		if !r.AllCorrectDecided() {
			t.Fatalf("n=%d: termination violated: %v", n, r)
		}
		if v, _ := r.Decision(); v != core.Commit {
			t.Fatalf("n=%d: expected commit, got %v", n, r)
		}
	}
}

func TestConsensusMixedProposals(t *testing.T) {
	r := run(t, sim.Config{N: 4, F: 1, Votes: []core.Value{1, 0, 1, 0}})
	checkConsensus(t, r)
	if !r.AllCorrectDecided() {
		t.Fatalf("termination violated: %v", r)
	}
}

func TestConsensusLeaderCrashAtStart(t *testing.T) {
	// P1 coordinates ballot 0; with P1 silent the ballot clock must rotate
	// to P2.
	r := run(t, sim.Config{N: 5, F: 2, Policy: sched.CrashAtStart(1)})
	checkConsensus(t, r)
	if !r.AllCorrectDecided() {
		t.Fatalf("termination violated after leader crash: %v", r)
	}
}

func TestConsensusLeaderCrashMidDecisionBroadcast(t *testing.T) {
	// The ballot-0 coordinator crashes while announcing the decision: only
	// P2 hears it. Uniform agreement requires every later decision to match.
	n := 5
	pol := sched.Merge(
		sim.Policy{Drop: func(s, d core.ProcessID, at core.Ticks, nth int) bool {
			// Suppress P1's MsgDecided broadcast except to P2. The decided
			// broadcast is the only multicast P1 performs after 3 hops, so
			// keying on time > 2U is enough to isolate it.
			return s == 1 && at > 2*sim.DefaultU && d > 2
		}},
		sched.Crashes(map[core.ProcessID]core.Ticks{1: 3*sim.DefaultU + 1}),
	)
	r := run(t, sim.Config{N: n, F: 2, Policy: pol})
	checkConsensus(t, r)
	if !r.AllCorrectDecided() {
		t.Fatalf("termination violated: %v", r)
	}
}

func TestConsensusEventuallySynchronous(t *testing.T) {
	// Messages are slow (4x U) until GST; afterwards the system is timely.
	// Termination and agreement must both hold (indulgence).
	u := sim.DefaultU
	r := run(t, sim.Config{N: 3, F: 1, Policy: sched.GST(u, 20*u, 4*u)})
	checkConsensus(t, r)
	if r.Class() != nbac.NetworkFailure {
		t.Fatalf("expected network-failure class, got %v", r.Class())
	}
	if !r.AllCorrectDecided() {
		t.Fatalf("indulgent consensus must terminate after stabilization: %v", r)
	}
}

func TestConsensusSilentWhenUnused(t *testing.T) {
	// A consensus module that never engages must cost nothing: no messages,
	// no timers, immediate quiescence.
	r := sim.Run(sim.Config{N: 3, F: 1, RunToQuiescence: true,
		New: func(core.ProcessID) core.Module { return &mute{} }})
	if r.MessagesSent != 0 || r.HorizonReached {
		t.Fatalf("unused consensus must be silent: %v", r)
	}
}

// mute registers a consensus child and never proposes to it.
type mute struct{ env core.Env }

func (m *mute) Init(env core.Env) {
	m.env = env
	env.Register("uc", New(), func(core.Value) {})
}
func (m *mute) Propose(v core.Value)                 {}
func (m *mute) Deliver(core.ProcessID, core.Message) {}
func (m *mute) Timeout(int)                          {}

func TestConsensusLateProposers(t *testing.T) {
	// Processes propose at very different times (as INBAC's processes do);
	// the ballot clock must still converge.
	r := sim.Run(sim.Config{N: 4, F: 1,
		New: func(id core.ProcessID) core.Module { return &lateProposer{} }})
	checkConsensus(t, r)
	if !r.AllCorrectDecided() {
		t.Fatalf("termination violated with late proposers: %v", r)
	}
}

// lateProposer defers its consensus proposal by id*3U.
type lateProposer struct {
	env core.Env
	uc  *Consensus
	v   core.Value
}

func (l *lateProposer) Init(env core.Env) {
	l.env = env
	l.uc = New()
	env.Register("uc", l.uc, func(v core.Value) { l.env.Decide(v) })
}
func (l *lateProposer) Propose(v core.Value) {
	l.v = v
	l.env.SetTimerAt(core.Ticks(int(l.env.ID()))*3*l.env.U(), 1)
}
func (l *lateProposer) Deliver(core.ProcessID, core.Message) {}
func (l *lateProposer) Timeout(tag int)                      { l.uc.Propose(l.v) }

func TestConsensusPropertyRandomSchedules(t *testing.T) {
	const trials = 400
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5) // 3..7
		f := (n - 1) / 2     // keep a correct majority so termination is due
		votes := make([]core.Value, n)
		for i := range votes {
			votes[i] = core.Value(rng.Intn(2))
		}
		pol := sched.Random(rng, sched.RandomOpts{
			N: n, F: f, U: sim.DefaultU,
			Crashes: true, NetFailures: seed%2 == 0,
		})
		r := sim.Run(sim.Config{N: n, F: f, Votes: votes, Policy: pol,
			New: func(core.ProcessID) core.Module { return New() }})
		if len(r.Violations) > 0 {
			t.Fatalf("seed %d: violations: %v", seed, r.Violations)
		}
		if !r.Agreement() {
			t.Fatalf("seed %d: agreement violated: %v", seed, r)
		}
		if v, ok := r.Decision(); ok {
			ok := false
			for _, pv := range votes {
				if pv == v {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("seed %d: decided %v, never proposed (votes %v)", seed, v, votes)
			}
		}
		correct := n - len(r.Crashed)
		if correct*2 > n && !r.AllCorrectDecided() {
			t.Fatalf("seed %d: termination violated with correct majority: %v", seed, r)
		}
	}
}
