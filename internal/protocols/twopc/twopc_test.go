package twopc

import (
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

const u = sim.DefaultU

func TestSpontaneousNiceExecution(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		r := sim.Run(sim.Config{N: n, F: 1, New: New()})
		if !r.SolvesNBAC() {
			t.Fatalf("n=%d: %v", n, r)
		}
		if r.MessagesToDecide != 2*n-2 || r.DelayUnits() != 2 {
			t.Fatalf("n=%d: want 2n-2=%d messages / 2 delays, got %v", n, 2*n-2, r)
		}
	}
}

// TestBlocking reproduces the paper's motivation for everything beyond 2PC:
// the coordinator is a single point of failure. It crashes after collecting
// the votes and before announcing the outcome, and every participant stays
// undecided forever.
func TestBlocking(t *testing.T) {
	n := 5
	r := sim.Run(sim.Config{N: n, F: 1, New: New(),
		Policy: sched.Crashes(map[core.ProcessID]core.Ticks{1: u})})
	if r.Termination() {
		t.Fatalf("2PC must block on coordinator crash, got %v", r)
	}
	if len(r.Decisions) != 0 {
		t.Fatalf("nobody can decide: %v", r)
	}
	// Agreement and validity still hold vacuously, which is 2PC's contract.
	if bad := nbac.Check(nbac.Contract{Name: "2pc", CF: nbac.PropsAV, NF: nbac.PropsAV}, &r.Execution); len(bad) != 0 {
		t.Fatalf("%v", bad)
	}
}

// TestCoordinatorCrashMidOutcome: the classic partial-broadcast hazard. Some
// participants learn the outcome, the rest block, and no disagreement
// arises (all decisions stem from the one outcome value).
func TestCoordinatorCrashMidOutcome(t *testing.T) {
	n := 5
	pol := sched.PartialBroadcast(1, u, 4, 5)
	r := sim.Run(sim.Config{N: n, F: 1, New: New(), Policy: pol})
	if !r.Agreement() || !r.Validity() {
		t.Fatalf("agreement/validity must survive a partial outcome broadcast: %v", r)
	}
	if _, ok := r.Decisions[2]; !ok {
		t.Fatalf("P2 received the outcome and must decide: %v", r)
	}
	if _, ok := r.Decisions[4]; ok {
		t.Fatalf("P4 lost the outcome and must block: %v", r)
	}
}

// TestLateVoteAborts: a delayed vote is indistinguishable from a crash, so
// the coordinator aborts; validity holds because a (network) failure
// occurred.
func TestLateVoteAborts(t *testing.T) {
	r := sim.Run(sim.Config{N: 4, F: 1, New: New(),
		Policy: sched.DelayFrom(u, 3, 5*u)})
	if v, ok := r.Decision(); !ok || v != core.Abort {
		t.Fatalf("late vote must abort: %v", r)
	}
	if !r.Validity() {
		t.Fatalf("aborting on suspected failure is valid: %v", r)
	}
}
