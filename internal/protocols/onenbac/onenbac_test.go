package onenbac

import (
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

const u = sim.DefaultU

// TestOneDelayDecision pins the headline result the paper closes: for
// synchronous NBAC, ONE message delay is optimal, and 1NBAC achieves it —
// every process decides at exactly U in a nice execution.
func TestOneDelayDecision(t *testing.T) {
	for _, nf := range [][2]int{{2, 1}, {4, 3}, {6, 2}} {
		n, f := nf[0], nf[1]
		r := sim.Run(sim.Config{N: n, F: f, New: New()})
		if !r.SolvesNBAC() {
			t.Fatalf("n=%d f=%d: %v", n, f, r)
		}
		for i := 1; i <= n; i++ {
			if got := r.DecisionTick[core.ProcessID(i)]; got != u {
				t.Errorf("n=%d f=%d: P%d decided at %d, want U=%d", n, f, i, got, u)
			}
		}
		if r.MessagesToDecide != n*n-n {
			t.Errorf("n=%d f=%d: %d messages to decide, want n^2-n=%d", n, f, r.MessagesToDecide, n*n-n)
		}
	}
}

// TestHelpingBroadcastNotCounted: the [D, d] helping broadcast is sent at
// decision time and arrives after every decision, so the paper's n^2-n
// count excludes it while the total send count sees it.
func TestHelpingBroadcastNotCounted(t *testing.T) {
	n := 4
	r := sim.Run(sim.Config{N: n, F: 1, New: New(), RunToQuiescence: true})
	if r.MessagesToDecide != n*n-n {
		t.Fatalf("messages to decide = %d, want %d", r.MessagesToDecide, n*n-n)
	}
	if r.MessagesSent != 2*(n*n-n) {
		t.Fatalf("total sends = %d, want votes + helping = %d", r.MessagesSent, 2*(n*n-n))
	}
}

// TestCrashFallsBackToConsensus: with a crashed process nobody holds n votes
// at U; everybody proposes to the flooding consensus and the execution still
// solves NBAC for ANY f (here f = n-1, where an indulgent consensus could
// not terminate).
func TestCrashFallsBackToConsensus(t *testing.T) {
	n := 5
	r := sim.Run(sim.Config{N: n, F: n - 1, New: New(),
		Policy: sched.CrashAtStart(2, 3, 4, 5)})
	if !r.Agreement() || !r.Validity() || !r.Termination() {
		t.Fatalf("synchronous NBAC must tolerate n-1 crashes: %v", r)
	}
	if v, _ := r.Decision(); v != core.Abort {
		t.Fatalf("missing votes must abort: %v", r)
	}
}

// TestFastDeciderHelpsLaggard: P1 crashes mid-broadcast so only some
// processes hold all n votes at U; they decide fast and their [D, 1] lets
// the rest agree through consensus proposals.
func TestFastDeciderHelpsLaggard(t *testing.T) {
	n := 5
	pol := sched.PartialBroadcast(1, 0, 4, 5)
	r := sim.Run(sim.Config{N: n, F: 2, New: New(), Policy: pol})
	if !r.Agreement() || !r.Validity() || !r.Termination() {
		t.Fatalf("%v", r)
	}
	if v, _ := r.Decision(); v != core.Commit {
		t.Fatalf("fast deciders committed, so everyone must: %v", r)
	}
}

// TestNetworkFailureKeepsValidityAndTermination: 1NBAC's cell is (AVT, VT):
// under network failures it must still terminate with valid decisions
// (agreement is not promised — that is the price of one delay).
func TestNetworkFailureKeepsValidityAndTermination(t *testing.T) {
	r := sim.Run(sim.Config{N: 4, F: 2, New: New(),
		Policy: sched.GST(u, 10*u, 3*u)})
	if !r.Validity() || !r.Termination() {
		t.Fatalf("validity+termination must hold under network failures: %v", r)
	}
}
