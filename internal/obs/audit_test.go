package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/sim"
)

// replay feeds one execution record into a fresh auditor the way the
// live runtime would: votes, per-envelope delay observations, then
// decisions. It returns the auditor's fired violation kinds.
func replay(t *testing.T, contract nbac.Contract, exec *nbac.Execution, u, delay time.Duration) map[string]int64 {
	t.Helper()
	aud := NewAuditor(AuditorConfig{Contracts: map[string]nbac.Contract{contract.Name: contract}})
	txID := "replay-" + t.Name()
	for i := 1; i <= exec.N; i++ {
		aud.Vote(txID, core.ProcessID(i), exec.N, contract.Name, exec.Votes[i-1], u)
	}
	if delay > 0 {
		sent := ProcessClock.Tick()
		now := HLC(uint64(sent) + uint64(delay)&^hlcLogicalMask)
		aud.ObserveSend(txID)
		aud.ObserveRecv(txID, sent, now)
	}
	for i := 1; i <= exec.N; i++ {
		if v, ok := exec.Decisions[core.ProcessID(i)]; ok {
			aud.Decide(txID, core.ProcessID(i), v, "")
		}
	}
	return aud.Violations()
}

// TestAuditorMatchesSimChecker is the shared-implementation proof the
// issue demands: the same execution record is fed to the simulator's
// checker (nbac.Check on a sim.Result's embedded record) and replayed through the
// live auditor, and both must flag the identical property set — they
// run the same nbac predicates, so any divergence is a wiring bug.
func TestAuditorMatchesSimChecker(t *testing.T) {
	contract := nbac.Contract{Name: "inbac", CF: nbac.PropsAVT, NF: nbac.PropsAVT, MajorityForT: true}
	const u = 5 * time.Millisecond
	c, a := core.Commit, core.Abort

	cases := []struct {
		name  string
		exec  nbac.Execution
		delay time.Duration // injected one-way delay observation
	}{
		{name: "unanimous-commit", exec: nbac.Execution{
			N: 3, Votes: []core.Value{c, c, c},
			Decisions: map[core.ProcessID]core.Value{1: c, 2: c, 3: c},
		}},
		{name: "no-vote-aborts", exec: nbac.Execution{
			N: 3, Votes: []core.Value{c, a, c},
			Decisions: map[core.ProcessID]core.Value{1: a, 2: a, 3: a},
		}},
		{name: "agreement-violation", exec: nbac.Execution{
			N: 3, Votes: []core.Value{c, c, c},
			Decisions: map[core.ProcessID]core.Value{1: c, 2: c, 3: a},
		}},
		{name: "validity-violation-failure-free-abort", exec: nbac.Execution{
			N: 3, Votes: []core.Value{c, c, c},
			Decisions: map[core.ProcessID]core.Value{1: a, 2: a, 3: a},
		}},
		{name: "commit-despite-no-vote", exec: nbac.Execution{
			N: 3, Votes: []core.Value{c, a, c},
			Decisions: map[core.ProcessID]core.Value{1: c, 2: c, 3: c},
		}},
		{name: "netfail-excuses-all-yes-abort", exec: nbac.Execution{
			N: 3, Votes: []core.Value{c, c, c},
			Decisions:      map[core.ProcessID]core.Value{1: a, 2: a, 3: a},
			NetworkFailure: true,
		}, delay: 40 * time.Millisecond},
		{name: "netfail-does-not-excuse-disagreement", exec: nbac.Execution{
			N: 3, Votes: []core.Value{c, c, c},
			Decisions:      map[core.ProcessID]core.Value{1: c, 2: a, 3: c},
			NetworkFailure: true,
		}, delay: 40 * time.Millisecond},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Sim path: the checker on a Result embedding the record.
			r := &sim.Result{Execution: tc.exec}
			simBad := nbac.Check(contract, &r.Execution)
			simAgreement, simValidity := false, false
			for _, msg := range simBad {
				if strings.Contains(msg, "agreement violated") {
					simAgreement = true
				}
				if strings.Contains(msg, "validity violated") {
					simValidity = true
				}
			}

			// Live path: the auditor replaying the same record.
			viol := replay(t, contract, &tc.exec, u, tc.delay)
			liveAgreement := viol["audit-agreement"] > 0
			liveValidity := viol["audit-validity"] > 0

			if simAgreement != liveAgreement {
				t.Errorf("agreement verdict diverged: sim=%v live=%v (sim said %v, live said %v)",
					simAgreement, liveAgreement, simBad, viol)
			}
			if simValidity != liveValidity {
				t.Errorf("validity verdict diverged: sim=%v live=%v (sim said %v, live said %v)",
					simValidity, liveValidity, simBad, viol)
			}
		})
	}
}

// TestAuditorExecutionClass: an all-yes abort is a validity violation only in
// an execution the auditor can vouch for as failure-free. An envelope still
// unhandled at the last decision, or delay, vote spread and timer lag adding
// up to U, is a timing failure the protocol may answer with abort — the
// timing aborts of a saturated host — even where each stays under U.
func TestAuditorExecutionClass(t *testing.T) {
	const u = 5 * time.Millisecond
	ms := time.Millisecond
	cases := []struct {
		name            string
		sent, handled   int
		delay, lag      time.Duration
		wantFailureFree bool
	}{
		{name: "all handled, slack under U", sent: 2, handled: 2, delay: 2 * ms, lag: 2 * ms, wantFailureFree: true},
		{name: "an envelope still in flight", sent: 2, handled: 1, delay: ms},
		{name: "delay and lag add up to U", sent: 2, handled: 2, delay: 4 * ms, lag: 2 * ms},
		{name: "lag alone reaches U", sent: 0, handled: 0, lag: 5 * ms},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			aud := NewAuditor(AuditorConfig{})
			const txID = "tx-class"
			for p := core.ProcessID(1); p <= 2; p++ {
				aud.Vote(txID, p, 2, "inbac", core.Commit, u)
			}
			for i := 0; i < tc.sent; i++ {
				aud.ObserveSend(txID)
			}
			for i := 0; i < tc.handled; i++ {
				sent := ProcessClock.Tick()
				aud.ObserveRecv(txID, sent, HLC(uint64(sent)+uint64(tc.delay)&^hlcLogicalMask))
			}
			aud.ObserveLag(txID, tc.lag)
			for p := core.ProcessID(1); p <= 2; p++ {
				aud.Decide(txID, p, core.Abort, "")
			}
			if got := aud.Violations()["audit-validity"] == 1; got != tc.wantFailureFree {
				t.Fatalf("all-yes abort flagged as a validity violation: %v, want %v", got, tc.wantFailureFree)
			}
		})
	}
}

// TestAuditorDecisionStability: one process deciding twice, differently,
// is flagged immediately even though agreement across processes holds.
func TestAuditorDecisionStability(t *testing.T) {
	aud := NewAuditor(AuditorConfig{})
	aud.Vote("tx-stab", 1, 2, "2pc", core.Commit, time.Millisecond)
	aud.Vote("tx-stab", 2, 2, "2pc", core.Commit, time.Millisecond)
	aud.Decide("tx-stab", 1, core.Commit, "")
	aud.Decide("tx-stab", 1, core.Abort, "") // the same process flips
	if v := aud.Violations(); v["audit-stability"] != 1 {
		t.Fatalf("violations = %v, want one audit-stability", v)
	}
}

// TestAuditorAgreementFiresBeforeLaggards: a two-decision mismatch is
// flagged without waiting for the remaining participants.
func TestAuditorAgreementFiresBeforeLaggards(t *testing.T) {
	aud := NewAuditor(AuditorConfig{})
	aud.Vote("tx-lag", 1, 4, "inbac", core.Commit, time.Millisecond)
	aud.Decide("tx-lag", 1, core.Commit, "fast")
	aud.Decide("tx-lag", 2, core.Abort, "consensus")
	if v := aud.Violations(); v["audit-agreement"] != 1 {
		t.Fatalf("violations = %v, want one audit-agreement", v)
	}
	// The remaining decisions must not double-fire it.
	aud.Decide("tx-lag", 3, core.Commit, "")
	aud.Decide("tx-lag", 4, core.Commit, "")
	if v := aud.Violations(); v["audit-agreement"] != 1 {
		t.Fatalf("violations after finalize = %v, want one audit-agreement", v)
	}
}

// TestAuditorTerminationSpan: a transaction that completes far outside
// the auditor's termination factor × U (lowered to 1 here) is flagged from
// its recorded HLC span.
func TestAuditorTerminationSpan(t *testing.T) {
	aud := NewAuditor(AuditorConfig{})
	aud.termFactor = 1
	u := 100 * time.Microsecond
	aud.Vote("tx-slow", 1, 1, "2pc", core.Commit, u)
	time.Sleep(3 * time.Millisecond) // span >> 1×U
	aud.Decide("tx-slow", 1, core.Commit, "")
	if v := aud.Violations(); v["audit-termination"] != 1 {
		t.Fatalf("violations = %v, want one audit-termination", v)
	}
	s := aud.Summary()
	if s.MaxSpanNs < int64(time.Millisecond) {
		t.Fatalf("summary MaxSpanNs = %d, want >= 1ms", s.MaxSpanNs)
	}
}

// TestAuditorSummaryAndEviction: observed/checked/incomplete counts and
// the delay maxima line up; FIFO eviction counts undecided transactions.
func TestAuditorSummaryAndEviction(t *testing.T) {
	aud := NewAuditor(AuditorConfig{})
	aud.maxTxns = 2 // evict beyond two
	u := 5 * time.Millisecond
	for i := 0; i < 3; i++ {
		tx := fmt.Sprintf("tx-%d", i)
		aud.Vote(tx, 1, 1, "2pc", core.Commit, u)
		if i > 0 {
			aud.Decide(tx, 1, core.Commit, "")
		}
	}
	sent := ProcessClock.Tick()
	now := HLC(uint64(sent) + uint64(2*time.Millisecond)&^hlcLogicalMask)
	aud.ObserveRecv("tx-2", sent, now)

	s := aud.Summary()
	if s.TxnsObserved != 3 || s.TxnsChecked != 2 {
		t.Fatalf("observed/checked = %d/%d, want 3/2", s.TxnsObserved, s.TxnsChecked)
	}
	if s.Incomplete != 1 {
		t.Fatalf("incomplete = %d, want 1 (tx-0 evicted undecided)", s.Incomplete)
	}
	if s.MaxOneWayDelayNs < int64(time.Millisecond) {
		t.Fatalf("MaxOneWayDelayNs = %d, want >= 1ms", s.MaxOneWayDelayNs)
	}
	if s.MaxUNs != int64(u) {
		t.Fatalf("MaxUNs = %d, want %d", s.MaxUNs, int64(u))
	}
	if len(s.Violations) != 0 {
		t.Fatalf("clean run fired %v", s.Violations)
	}
}

// TestAuditorAnomalyDumpIsCausal: an auditor violation goes through
// ReportAnomaly, so it arrives with the transaction's merged timeline.
func TestAuditorAnomalyDumpIsCausal(t *testing.T) {
	Default.Reset()
	Default.Enable()
	defer Default.Disable()
	var got *Dump
	SetAnomalyHook(func(d Dump) {
		if d.Anomaly.Kind == "audit-agreement" && got == nil {
			got = &d
		}
	})
	defer SetAnomalyHook(nil)

	aud := NewAuditor(AuditorConfig{})
	SetAuditor(aud)
	defer SetAuditor(nil)

	tx := "tx-causal-dump"
	Default.Record(Event{Kind: EvVote, TxID: tx, Proc: 1, Note: "commit"})
	Default.Record(Event{Kind: EvDecide, TxID: tx, Proc: 1, Note: "commit"})
	Default.Record(Event{Kind: EvDecide, TxID: tx, Proc: 2, Note: "abort"})
	aud.Vote(tx, 1, 2, "inbac", core.Commit, time.Millisecond)
	aud.Decide(tx, 1, core.Commit, "fast")
	aud.Decide(tx, 2, core.Abort, "consensus")

	if got == nil {
		t.Fatal("audit-agreement anomaly did not fire")
	}
	if len(got.Events) < 3 {
		t.Fatalf("dump has %d events, want the recorded timeline", len(got.Events))
	}
	for i := 1; i < len(got.Events); i++ {
		if got.Events[i-1].HLC > got.Events[i].HLC {
			t.Fatalf("dump not in HLC order at %d", i)
		}
	}
	if !strings.Contains(got.Anomaly.Detail, "P1=commit(fast)") ||
		!strings.Contains(got.Anomaly.Detail, "P2=abort(consensus)") {
		t.Fatalf("detail %q missing decision vector", got.Anomaly.Detail)
	}
}
