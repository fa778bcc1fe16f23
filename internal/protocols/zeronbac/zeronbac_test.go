package zeronbac

import (
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

const u = sim.DefaultU

// TestZeroMessagesNiceExecution pins the paper's most striking optimum: the
// (AT, AT) cell costs ZERO messages and one delay, with no tradeoff.
func TestZeroMessagesNiceExecution(t *testing.T) {
	for _, n := range []int{2, 3, 6, 10} {
		r := sim.Run(sim.Config{N: n, F: 1, New: New(), RunToQuiescence: true})
		if !r.SolvesNBAC() {
			t.Fatalf("n=%d: %v", n, r)
		}
		if r.MessagesSent != 0 {
			t.Fatalf("n=%d: a nice execution must be silent, sent %d", n, r.MessagesSent)
		}
		if r.DelayUnits() != 1 {
			t.Fatalf("n=%d: want 1 delay, got %d", n, r.DelayUnits())
		}
	}
}

// TestImplicitVoteAbort: with a 0 vote the silence breaks; the ack
// choreography plus consensus must drive everybody to abort in a
// failure-free execution.
func TestImplicitVoteAbort(t *testing.T) {
	votes := []core.Value{1, 0, 1, 1}
	r := sim.Run(sim.Config{N: 4, F: 1, Votes: votes, New: New()})
	if !r.SolvesNBAC() {
		t.Fatalf("%v", r)
	}
	if v, _ := r.Decision(); v != core.Abort {
		t.Fatalf("must abort: %v", r)
	}
}

// TestValidityIsSacrificed is the point of the (AT, AT) cell: a 0-voter that
// crashes before its announcement spreads can leave the survivors committing
// on silence. Validity breaks (the paper's cell omits V), but agreement and
// termination must hold.
func TestValidityIsSacrificed(t *testing.T) {
	n := 5
	votes := []core.Value{0, 1, 1, 1, 1}
	// P1 votes 0 and crashes before sending anything.
	r := sim.Run(sim.Config{N: n, F: 1, Votes: votes, New: New(),
		Policy: sched.CrashAtStart(1)})
	if !r.Agreement() || !r.Termination() {
		t.Fatalf("agreement+termination are promised: %v", r)
	}
	if v, _ := r.Decision(); v != core.Commit {
		t.Fatalf("survivors saw pure silence and must commit: %v", r)
	}
	if r.Validity() {
		t.Fatalf("this execution is the canonical validity violation the cell permits")
	}
}

// TestPartialZeroAnnouncement: the 0-voter reaches only one process before
// crashing. The informed process must not abort unilaterally — the silent
// committers would disagree — so consensus resolves it.
func TestPartialZeroAnnouncement(t *testing.T) {
	n := 5
	votes := []core.Value{0, 1, 1, 1, 1}
	pol := sched.PartialBroadcast(1, 0, 3, 4, 5) // P2 alone hears the zero
	r := sim.Run(sim.Config{N: n, F: 1, Votes: votes, New: New(), Policy: pol})
	if !r.Agreement() || !r.Termination() {
		t.Fatalf("%v", r)
	}
}

// TestNetworkFailureAgreement: under an eventually synchronous network the
// cell still promises agreement and termination.
func TestNetworkFailureAgreement(t *testing.T) {
	votes := []core.Value{1, 0, 1, 1, 1}
	r := sim.Run(sim.Config{N: 5, F: 2, Votes: votes, New: New(),
		Policy: sched.GST(u, 8*u, 4*u)})
	if !r.Agreement() || !r.Termination() {
		t.Fatalf("%v", r)
	}
}
