package commit

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols/inbac"
)

// splitDecision is a disagreement made to order: every member sends every
// other its vote, and at U P1 decides abort while the rest decide commit.
type splitDecision struct{ env core.Env }

func (p *splitDecision) Init(env core.Env) { p.env = env }
func (p *splitDecision) Propose(v core.Value) {
	for q := core.ProcessID(1); int(q) <= p.env.N(); q++ {
		if q != p.env.ID() {
			p.env.Send(q, inbac.MsgV{V: v})
		}
	}
	p.env.SetTimerAt(p.env.U(), 0)
}
func (p *splitDecision) Deliver(core.ProcessID, core.Message) {}
func (p *splitDecision) Timeout(int) {
	v := core.Commit
	if p.env.ID() == 1 {
		v = core.Abort
	}
	p.env.Decide(v)
}

// watchAnomalies turns the flight recorder and a live auditor on for the
// test, and returns the auditor and a reader of the anomaly dumps made so far.
func watchAnomalies(t *testing.T) (aud *obs.Auditor, dumps func() []obs.Dump) {
	obs.Default.Enable()
	var mu sync.Mutex
	var got []obs.Dump
	obs.SetAnomalyHook(func(d obs.Dump) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	})
	aud = obs.NewAuditor(obs.AuditorConfig{})
	obs.SetAuditor(aud)
	t.Cleanup(func() {
		obs.SetAuditor(nil)
		obs.SetAnomalyHook(nil)
		obs.Default.Reset()
		obs.Default.Disable()
	})
	return aud, func() []obs.Dump {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Dump(nil), got...)
	}
}

// TestAgreementViolationFlightRecorder pins what the flight recorder and the
// auditor exist for: when members of one transaction decide differently, the
// live auditor classifies the run as an NBAC agreement violation through the
// shared predicates and dumps it ("audit-agreement"), and the recorder holds
// the complete merged per-member timeline of the transaction. Agreement is
// checked there only: the commit itself answers with its coordinator's
// decision. The disagreement comes from a test module; the search for one in
// INBAC itself is TestINBACAgreementUnderJitter.
func TestAgreementViolationFlightRecorder(t *testing.T) {
	aud, dumps := watchAnomalies(t)

	const n = 4
	rs := make([]Resource, n)
	for i := range rs {
		rs[i] = ResourceFunc{}
	}
	cl, err := NewCluster(rs, Options{Timeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, p := range cl.peers {
		p.mk = func(core.ProcessID) core.Module { return &splitDecision{} }
	}
	// Unique per run: under -count a straggling delivery of the previous
	// run may be recorded after that run reset the recorder.
	txID := fmt.Sprintf("anom-split-%d", time.Now().UnixNano())
	if ok, err := cl.client.SubmitAt(context.Background(), txID, 1).Wait(ctx(t)); ok || err != nil {
		t.Fatalf("commit of a split decision at P1: ok=%v err=%v, want P1's abort", ok, err)
	}
	waitApplied(t, cl, txID)
	// The auditor reads every member's decision from its instance and
	// classifies the split as an agreement violation. Waiting for its dump
	// also means no dump is still being written when the test ends.
	waitFor(t, "the audit-agreement dump", func() bool {
		for _, d := range dumps() {
			if d.Anomaly.Kind == "audit-agreement" && d.Anomaly.TxID == txID {
				return true
			}
		}
		return false
	})
	events := obs.Default.TxTimeline(txID)

	// The timeline, taken after every member applied, must be the complete
	// multi-member story: every member's vote and decide, and both decision
	// values that contradicted.
	decided := make(map[core.ProcessID]string)
	voted := make(map[core.ProcessID]bool)
	sends := 0
	for _, e := range events {
		if e.TxID != txID {
			t.Fatalf("timeline of %s contains foreign event for %s", txID, e.TxID)
		}
		switch e.Kind {
		case obs.EvDecide:
			decided[e.Proc] = e.Note
		case obs.EvVote:
			voted[e.Proc] = true
		case obs.EvSend:
			sends++
		}
	}
	values := make(map[string]bool)
	for p := core.ProcessID(1); p <= n; p++ {
		if !voted[p] {
			t.Errorf("timeline missing %v's vote", p)
		}
		v, ok := decided[p]
		if !ok {
			t.Errorf("timeline missing %v's decision", p)
			continue
		}
		values[v] = true
	}
	if len(values) < 2 {
		t.Errorf("timeline decisions %v do not show the disagreement", decided)
	}
	if sends == 0 {
		t.Error("timeline has no send events; transport instrumentation missing")
	}

	// Events must be in causal (HLC) order — the "interleaving" promise —
	// and every receive must appear after the send it observed: the
	// envelope's HLC stamp rides along as EvRecv.Arg, so the matching
	// EvSend is identifiable, not inferred from wall clocks.
	recvs, matched := 0, 0
	for i := 1; i < len(events); i++ {
		if events[i-1].HLC > events[i].HLC {
			t.Errorf("timeline out of HLC order at %d", i)
		}
	}
	for i, e := range events {
		if e.Kind != obs.EvRecv || e.Arg == 0 {
			continue
		}
		recvs++
		sent := obs.HLC(e.Arg)
		if e.HLC <= sent {
			t.Errorf("recv %d not after its send stamp: recv=%v sent=%v", i, e.HLC, sent)
		}
		for j := 0; j < i; j++ {
			if events[j].Kind == obs.EvSend && events[j].HLC == sent {
				matched++
				break
			}
		}
	}
	if recvs == 0 {
		t.Error("timeline has no HLC-stamped receives; transport instrumentation missing")
	}
	if matched != recvs {
		t.Errorf("only %d of %d receives have their matching send earlier in the timeline", matched, recvs)
	}

	// The auditor counted the violation its dump reported.
	if v := aud.Violations(); v["audit-agreement"] == 0 {
		t.Errorf("auditor did not count an agreement violation: %v", v)
	}
}

// TestINBACAgreementUnderJitter searches for the INBAC agreement violation
// that was open from the seed to PR 13 (about 1 in 500 mesh transactions at
// tight U: P1 aborts through consensus what P2..P4 commit), and fails if it
// finds one. Its cause was in the runtime, not in the protocol — a timer
// already due could overtake a process's delivery to itself (see
// live.TestSelfSendBeforeLaterEvents) — and this is the load under which it
// showed in about one round: one-way latency jittered up to ~2.5U, so that
// some members' acknowledgements miss their 2U timer while others' make it.
func TestINBACAgreementUnderJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("a 20 s search; skipped in -short")
	}
	aud, dumps := watchAnomalies(t)

	const (
		n, f     = 4, 1
		u        = 5 * time.Millisecond
		perRound = 256
		inFlight = 64 // 256 at once outlast the coordinators' 128 U bound under -race
		rounds   = 96
	)
	for round := 0; round < rounds; round++ {
		rs := make([]Resource, n)
		for i := range rs {
			rs[i] = ResourceFunc{}
		}
		cl, err := NewCluster(rs, Options{
			Protocol: "inbac", F: f, Timeout: u,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each round reseeds, so rounds explore different interleavings.
		cl.Mesh().SetShaper(live.LinkShaper{Delay: live.Jitter(0, 12*time.Millisecond, int64(round+1))})

		ids := make([]string, perRound)
		for i := range ids {
			ids[i] = fmt.Sprintf("anom-r%d-%d", round, i)
		}
		// inFlight committers in closed loop; the first error is kept.
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < inFlight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < perRound; i = next.Add(1) - 1 {
					if _, e := cl.Commit(context.Background(), ids[i]); e != nil {
						mu.Lock()
						if err == nil {
							err = e
						}
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		// A commit answers once its coordinator applied; a member that
		// decides later must still reach the auditor before Close stops
		// its timers.
		waitApplied(t, cl, ids...)
		cl.Close()
		for _, d := range dumps() {
			if d.Anomaly.Kind == "audit-agreement" {
				t.Fatalf("round %d: %s on %s: %s\n%s", round, d.Anomaly.Kind, d.Anomaly.TxID, d.Anomaly.Detail, d.Interleaving())
			}
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if v := aud.Violations(); v["audit-agreement"] != 0 {
		t.Fatalf("auditor counted agreement violations without a dump: %v", v)
	}
	// Every member's decision of every transaction reached the auditor.
	if s := aud.Summary(); s.TxnsChecked != rounds*perRound || s.Incomplete != 0 {
		t.Fatalf("auditor checked %d of %d transactions (%d incomplete)", s.TxnsChecked, rounds*perRound, s.Incomplete)
	}
}
