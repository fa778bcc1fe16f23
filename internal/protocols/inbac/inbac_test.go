package inbac

import (
	"testing"

	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

const u = sim.DefaultU

func run(cfg sim.Config) *sim.Result { return sim.Run(cfg) }

func factory(opts Options) func(core.ProcessID) core.Module { return New(opts) }

// TestNiceExecutionExact pins the exact shape of Theorem 6: every process
// decides commit at exactly 2U (two message delays) and the system exchanges
// exactly 2fn messages, none of them consensus messages.
func TestNiceExecutionExact(t *testing.T) {
	for _, nf := range [][2]int{{2, 1}, {3, 1}, {3, 2}, {5, 2}, {6, 5}, {10, 3}, {70, 2}} {
		n, f := nf[0], nf[1]
		r := run(sim.Config{N: n, F: f, New: factory(Options{})})
		if !r.SolvesNBAC() {
			t.Fatalf("n=%d f=%d: %v", n, f, r)
		}
		for i := 1; i <= n; i++ {
			p := core.ProcessID(i)
			if r.Decisions[p] != core.Commit {
				t.Errorf("n=%d f=%d: %v decided %v", n, f, p, r.Decisions[p])
			}
			if r.DecisionTick[p] != 2*u {
				t.Errorf("n=%d f=%d: %v decided at tick %d, want %d", n, f, p, r.DecisionTick[p], 2*u)
			}
			if r.DecisionDepth[p] > 2 {
				t.Errorf("n=%d f=%d: %v decided at causal depth %d > 2", n, f, p, r.DecisionDepth[p])
			}
		}
		if want := 2 * f * n; r.MessagesToDecide != want {
			t.Errorf("n=%d f=%d: %d messages, want 2fn = %d", n, f, r.MessagesToDecide, want)
		}
		if r.ConsensusMessages() != 0 {
			t.Errorf("n=%d f=%d: consensus must stay silent in nice executions", n, f)
		}
	}
}

// TestFigure1FastPath: the left branch of Figure 1 — f correct acks
// containing all n votes at 2U lead straight to decide AND.
// (Covered in TestNiceExecutionExact for the commit value; here with a 0
// vote to pin the AND.)
func TestFigure1FastPath(t *testing.T) {
	votes := []core.Value{1, 1, 0, 1, 1}
	r := run(sim.Config{N: 5, F: 2, Votes: votes, New: factory(Options{})})
	if !r.SolvesNBAC() {
		t.Fatalf("%v", r)
	}
	if v, _ := r.Decision(); v != core.Abort {
		t.Fatalf("AND of votes with a zero must abort: %v", r)
	}
	if r.ConsensusMessages() != 0 {
		t.Errorf("failure-free aborts still use the fast path (no consensus), sent %d", r.ConsensusMessages())
	}
	if r.LastDecisionTick != 2*u {
		t.Errorf("failure-free abort decides at 2U, got tick %d", r.LastDecisionTick)
	}
}

// TestFigure1ConsProposeAND: an ack is missing (one backup crashed after the
// votes were backed up but before acknowledging), so processes take the
// consensus branch, but with complete knowledge they propose AND = 1 and the
// transaction still commits.
func TestFigure1ConsProposeAND(t *testing.T) {
	// P1 is a backup (f=2 => backups P1, P2). It crashes at time U before
	// sending its [C] acknowledgements; P2's complete acknowledgement still
	// reaches everyone, so cnt >= 1 and the union contains all votes.
	n, f := 5, 2
	r := run(sim.Config{N: n, F: f, New: factory(Options{}),
		Policy: sched.Crashes(map[core.ProcessID]core.Ticks{1: u})})
	if r.Class() != nbac.CrashFailure {
		t.Fatalf("expected crash-failure execution: %v", r)
	}
	if !r.Agreement() || !r.Validity() || !r.Termination() {
		t.Fatalf("INBAC must solve NBAC here: %v", r)
	}
	if v, _ := r.Decision(); v != core.Commit {
		t.Fatalf("complete knowledge must commit (cons-propose AND): %v", r)
	}
	if r.ConsensusMessages() == 0 {
		t.Fatalf("expected the consensus branch to be exercised: %v", r)
	}
}

// TestFigure1ConsProposeZero: every backup crashes at time 0, votes are
// never backed up, knowledge stays incomplete, and the consensus branch must
// propose 0: the transaction aborts despite every vote being 1 (legitimate:
// a failure occurred).
func TestFigure1ConsProposeZero(t *testing.T) {
	n, f := 7, 2 // majority stays correct (5 of 7)
	r := run(sim.Config{N: n, F: f, New: factory(Options{}),
		Policy: sched.CrashAtStart(1, 2)})
	if !r.Agreement() || !r.Validity() || !r.Termination() {
		t.Fatalf("INBAC must solve NBAC here: %v", r)
	}
	if v, _ := r.Decision(); v != core.Abort {
		t.Fatalf("incomplete knowledge must abort: %v", r)
	}
}

// TestFigure1HelpPath: a process in {Pf+1..Pn} that receives NO
// acknowledgement by 2U must ask {Pf+1..Pn} for help and resolve with the
// n-f answers (the right branch of Figure 1).
func TestFigure1HelpPath(t *testing.T) {
	n, f := 5, 1
	victim := core.ProcessID(4)
	// Delay every message from the single backup P1 to P4 past 4U: at 2U
	// P4 has cnt = 0 while everybody else decides fast.
	pol := sim.Policy{Delay: func(s, d core.ProcessID, at core.Ticks, nth int) core.Ticks {
		if s == 1 && d == victim {
			return at + 6*u
		}
		return at + u
	}}
	tr := &sim.Trace{}
	r := run(sim.Config{N: n, F: f, New: factory(Options{}), Policy: pol, Trace: tr})
	if !r.Agreement() || !r.Validity() || !r.Termination() {
		t.Fatalf("INBAC must solve NBAC here: %v", r)
	}
	if v, _ := r.Decision(); v != core.Commit {
		t.Fatalf("help path must still commit (helpers had full knowledge): %v", r)
	}
	// The trace must show HELP flowing from the victim.
	sawHelp := false
	for _, e := range tr.Entries {
		if e.Op == sim.OpSend && e.Msg == "HELP" && e.Proc == victim {
			sawHelp = true
		}
	}
	if !sawHelp {
		t.Fatalf("expected %v to ask for help; trace:\n%s", victim, tr)
	}
}

// TestAcceleratedAbort reproduces section 5.2: with the acceleration, a
// failure-free execution in which some process votes 0 terminates at the end
// of the FIRST message delay — faster than any nice execution.
func TestAcceleratedAbort(t *testing.T) {
	n, f := 6, 2
	votes := []core.Value{1, 1, 1, 0, 1, 1}
	r := run(sim.Config{N: n, F: f, Votes: votes, New: factory(Options{Accelerated: true})})
	if !r.SolvesNBAC() {
		t.Fatalf("%v", r)
	}
	if v, _ := r.Decision(); v != core.Abort {
		t.Fatalf("must abort: %v", r)
	}
	if r.LastDecisionTick != u {
		t.Fatalf("accelerated abort must finish after one delay, got tick %d (%v)", r.LastDecisionTick, r)
	}
	// And the acceleration must not change nice executions at all.
	nice := run(sim.Config{N: n, F: f, New: factory(Options{Accelerated: true})})
	if nice.MessagesToDecide != 2*f*n || nice.DelayUnits() != 2 {
		t.Fatalf("acceleration altered the nice execution: %v", nice)
	}
}

// TestUnbundledAcksAblation shows that Lemma 6's bundled acknowledgements
// are what achieve the 2fn bound: acknowledging each vote separately still
// solves NBAC but costs strictly more messages at the same two delays.
func TestUnbundledAcksAblation(t *testing.T) {
	n, f := 6, 2
	r := run(sim.Config{N: n, F: f, New: factory(Options{UnbundledAcks: true})})
	if !r.SolvesNBAC() {
		t.Fatalf("%v", r)
	}
	if r.DelayUnits() != 2 {
		t.Fatalf("ablation must keep 2 delays, got %d", r.DelayUnits())
	}
	if r.MessagesToDecide <= 2*f*n {
		t.Fatalf("unbundled acks must exceed 2fn = %d, got %d", 2*f*n, r.MessagesToDecide)
	}
}

// TestIndulgence: a fully eventually-synchronous execution (slow until GST)
// must still solve NBAC — the definition of indulgent atomic commit
// (Definition 3).
func TestIndulgence(t *testing.T) {
	for _, late := range []core.Ticks{2 * u, 4 * u, 9 * u} {
		r := run(sim.Config{N: 5, F: 2, New: factory(Options{}),
			Policy: sched.GST(u, 12*u, late)})
		if r.Class() != nbac.NetworkFailure {
			t.Fatalf("late=%d: expected network failure class", late)
		}
		if !r.Agreement() || !r.Validity() || !r.Termination() {
			t.Fatalf("late=%d: indulgent atomic commit violated: %v", late, r)
		}
	}
}

// TestTimeoutViolationsTolerated is the paper's practical pitch: timeout
// violations around the decision point must never produce disagreement,
// whatever value is decided.
func TestTimeoutViolationsTolerated(t *testing.T) {
	n, f := 4, 1
	for src := 1; src <= n; src++ {
		for dst := 1; dst <= n; dst++ {
			if src == dst {
				continue
			}
			pol := sched.DelayLinks(u, 3*u, [2]core.ProcessID{core.ProcessID(src), core.ProcessID(dst)})
			r := run(sim.Config{N: n, F: f, New: factory(Options{}), Policy: pol})
			if !r.Agreement() || !r.Validity() || !r.Termination() {
				t.Fatalf("delayed link %d->%d: %v", src, dst, r)
			}
		}
	}
}

// TestConsensusIndependence swaps in the flooding consensus: INBAC's
// correctness in crash-failure executions must be independent of the
// consensus implementation (the paper's modular claim) — and the nice
// execution must be bit-identical.
func TestConsensusIndependence(t *testing.T) {
	opts := Options{Consensus: func() core.Module { return consensus.NewFlooding() }}
	nice := run(sim.Config{N: 5, F: 2, New: factory(opts)})
	if !nice.SolvesNBAC() || nice.MessagesToDecide != 2*2*5 || nice.DelayUnits() != 2 {
		t.Fatalf("nice execution must be unchanged under a different consensus: %v", nice)
	}
	crash := run(sim.Config{N: 5, F: 2, New: factory(opts),
		Policy: sched.Crashes(map[core.ProcessID]core.Ticks{1: u})})
	if !crash.Agreement() || !crash.Validity() || !crash.Termination() {
		t.Fatalf("crash execution with flooding consensus: %v", crash)
	}
}

// TestBackupAssignment pins the B_P sets of section 5.2: every process has
// exactly f backups, chosen as the paper prescribes.
func TestBackupAssignment(t *testing.T) {
	n, f := 6, 3
	tr := &sim.Trace{}
	run(sim.Config{N: n, F: f, New: factory(Options{}), Trace: tr})
	dests := make(map[core.ProcessID]map[core.ProcessID]bool)
	for _, e := range tr.Entries {
		if e.Op == sim.OpSend && e.Msg == "V" && e.At == 0 {
			if dests[e.Proc] == nil {
				dests[e.Proc] = make(map[core.ProcessID]bool)
			}
			dests[e.Proc][e.Peer] = true
		}
	}
	for i := 1; i <= n; i++ {
		p := core.ProcessID(i)
		want := make(map[core.ProcessID]bool)
		if i <= f {
			for q := 1; q <= f+1; q++ {
				if q != i {
					want[core.ProcessID(q)] = true
				}
			}
			want[p] = true // the pseudocode also self-sends (free)
		} else {
			for q := 1; q <= f; q++ {
				want[core.ProcessID(q)] = true
			}
		}
		got := dests[p]
		for q := range want {
			if !got[q] {
				t.Errorf("%v must back up at %v; sends: %v", p, q, got)
			}
		}
		for q := range got {
			if !want[q] {
				t.Errorf("%v sent an unexpected vote to %v", p, q)
			}
		}
	}
}
