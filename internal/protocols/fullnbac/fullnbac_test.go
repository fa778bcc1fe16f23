package fullnbac

import (
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

const u = sim.DefaultU

// TestNiceExecution pins Table 4's message-optimal indulgent count: exactly
// 2n-2+f messages (double ring plus the [Z] tail), no consensus traffic.
func TestNiceExecution(t *testing.T) {
	for _, nf := range [][2]int{{3, 1}, {3, 2}, {5, 2}, {6, 3}, {8, 7}} {
		n, f := nf[0], nf[1]
		r := sim.Run(sim.Config{N: n, F: f, New: New()})
		if !r.SolvesNBAC() {
			t.Fatalf("n=%d f=%d: %v", n, f, r)
		}
		if r.MessagesToDecide != 2*n-2+f {
			t.Fatalf("n=%d f=%d: messages = %d, want 2n-2+f = %d", n, f, r.MessagesToDecide, 2*n-2+f)
		}
		if r.ConsensusMessages() != 0 {
			t.Fatalf("n=%d f=%d: consensus must stay silent", n, f)
		}
	}
}

// TestRingBreakFallsBackToConsensus: a crash in the middle of the ring
// forces the consensus path; the execution must still solve NBAC.
func TestRingBreakFallsBackToConsensus(t *testing.T) {
	n, f := 5, 2
	for victim := 2; victim <= n; victim++ {
		r := sim.Run(sim.Config{N: n, F: f, New: New(),
			Policy: sched.CrashAtStart(core.ProcessID(victim))})
		if !r.Agreement() || !r.Validity() || !r.Termination() {
			t.Fatalf("victim P%d: %v", victim, r)
		}
		if v, _ := r.Decision(); v != core.Abort {
			t.Fatalf("victim P%d: broken ring must abort: %v", victim, r)
		}
	}
}

// TestHelpPath: a process in {Pf+1..Pn-1} that misses its [B] asks
// {P1..Pf, Pn} for help and adopts a helper's aggregate.
func TestHelpPath(t *testing.T) {
	n, f := 6, 2
	victim := core.ProcessID(4)
	// Delay the [B] hop into the victim past its deadline.
	pol := sim.Policy{Delay: func(s, d core.ProcessID, at core.Ticks, nth int) core.Ticks {
		if d == victim && at >= core.Ticks(n)*u {
			return at + 10*u
		}
		return at + u
	}}
	tr := &sim.Trace{}
	r := sim.Run(sim.Config{N: n, F: f, New: New(), Policy: pol, Trace: tr})
	if !r.Agreement() || !r.Validity() || !r.Termination() {
		t.Fatalf("%v", r)
	}
	sawHelp := false
	for _, e := range tr.Entries {
		if e.Op == sim.OpSend && e.Msg == "HELP" && e.Proc == victim {
			sawHelp = true
		}
	}
	if !sawHelp {
		t.Fatalf("expected %v to ask for help; %v", victim, r)
	}
}

// TestIndulgence: eventually synchronous executions solve NBAC (the cell is
// (AVT, AVT), same as INBAC, at f fewer messages but many more delays).
func TestIndulgence(t *testing.T) {
	r := sim.Run(sim.Config{N: 5, F: 2, New: New(),
		Policy: sched.GST(u, 15*u, 4*u)})
	if !r.Agreement() || !r.Validity() || !r.Termination() {
		t.Fatalf("%v", r)
	}
}

// TestDecisionSchedule pins the staggered decision times of the nice
// execution (Pf first at (n+f-1)U, the [Z] tail last).
func TestDecisionSchedule(t *testing.T) {
	n, f := 5, 2
	r := sim.Run(sim.Config{N: n, F: f, New: New()})
	if got, want := r.DecisionTick[core.ProcessID(f)], core.Ticks(n+f-1)*u; got != want {
		t.Errorf("Pf decided at %d, want %d", got, want)
	}
	if got, want := r.LastDecisionTick, core.Ticks(2*n+f-2)*u; got != want {
		t.Errorf("last decision at %d, want %d", got, want)
	}
}
