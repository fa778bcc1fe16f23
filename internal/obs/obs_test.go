package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestDisabledRecordAllocs pins the zero-cost-when-off contract: with the
// recorder disabled, Record is a branch — no allocation, so the tracing
// calls can stay compiled into the transport hot path (the TCP send path's
// own ~0 allocs/envelope is pinned by live.TestTCPSendSteadyStateAllocs).
func TestDisabledRecordAllocs(t *testing.T) {
	r := NewRecorder(64)
	e := Event{Kind: EvSend, TxID: "tx", Proc: 1, Peer: 2, WireID: 17, Size: 32}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(e)
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %.2f/op, want 0", allocs)
	}
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("disabled Record stored %d events, want 0", got)
	}
}

// TestRecorderConcurrent stress-tests concurrent ring writers against a
// snapshotting reader; run under -race this pins the lock-free claim.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(256)
	r.Enable()
	const writers, perWriter = 8, 2000
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				r.TxTimeline("tx-3")
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Event{Kind: EvSend, TxID: fmt.Sprintf("tx-%d", w), Proc: 1, Size: i})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	events := r.Snapshot()
	if len(events) != 256 {
		t.Fatalf("full ring holds %d events, want 256", len(events))
	}
	// Snapshots are ordered by HLC, and every event recorded through an
	// enabled recorder gets a strictly increasing stamp from the
	// process clock — so the order must be strict.
	for i, e := range events {
		if e.HLC == 0 {
			t.Fatalf("event %d has no HLC stamp", i)
		}
		if i > 0 && events[i-1].HLC >= e.HLC {
			t.Fatalf("snapshot out of HLC order at %d: %v before %v", i, events[i-1].HLC, e.HLC)
		}
	}
}

// TestRecorderNeverEnabled: a recorder that was never enabled holds no
// ring, so a process that never traces pays no memory for one, and every
// reader sees an empty ring.
func TestRecorderNeverEnabled(t *testing.T) {
	r := NewRecorder(1 << 16)
	r.Record(Event{Kind: EvSend, TxID: "tx", Proc: 1})
	r.Disable()
	if r.ring.Load() != nil {
		t.Fatal("a recorder never enabled allocated its ring")
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Errorf("Snapshot returned %d events, want 0", len(got))
	}
	if got := r.TxTimeline("tx"); len(got) != 0 {
		t.Errorf("TxTimeline returned %d events, want 0", len(got))
	}
	r.Reset()
	if r.ring.Load() != nil {
		t.Fatal("Reset allocated the ring")
	}
}

// TestRecorderFirstEnableRace races the first Enable, which allocates the
// ring, against writers and readers; run under -race this pins that the
// ring is published before a writer can see the recorder enabled.
func TestRecorderFirstEnableRace(t *testing.T) {
	r := NewRecorder(256)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			r.Enable()
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Kind: EvSend, TxID: fmt.Sprintf("tx-%d", w), Proc: 1, Size: i})
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Snapshot()
				r.TxTimeline("tx-1")
			}
		}()
	}
	wg.Wait()
	r.Record(Event{Kind: EvDecide, TxID: "after", Proc: 1})
	if got := r.TxTimeline("after"); len(got) != 1 {
		t.Fatalf("an enabled recorder holds %d events of tx after, want 1", len(got))
	}
	if got := len(r.Snapshot()); got == 0 || got > 256 {
		t.Fatalf("ring holds %d events, want 1..256", got)
	}
}

// TestTxTimelineFilters checks TxTimeline returns exactly one
// transaction's events, merged across recording participants.
func TestTxTimelineFilters(t *testing.T) {
	r := NewRecorder(64)
	r.Enable()
	for p := 1; p <= 3; p++ {
		r.Record(Event{Kind: EvDecide, TxID: "a", Proc: 1})
		r.Record(Event{Kind: EvDecide, TxID: "b", Proc: 2})
	}
	got := r.TxTimeline("a")
	if len(got) != 3 {
		t.Fatalf("timeline for tx a has %d events, want 3", len(got))
	}
	for _, e := range got {
		if e.TxID != "a" {
			t.Fatalf("timeline for tx a includes tx %q", e.TxID)
		}
	}
	r.Reset()
	if got := r.TxTimeline("a"); len(got) != 0 {
		t.Fatalf("after Reset timeline has %d events, want 0", len(got))
	}
}

// TestReportAnomalyDump exercises the full anomaly path: counter, hook and
// timeline assembly.
func TestReportAnomalyDump(t *testing.T) {
	Default.Enable()
	defer Default.Disable()
	defer Default.Reset()
	defer SetAnomalyHook(nil)

	var hooked Dump
	SetAnomalyHook(func(d Dump) { hooked = d })

	Default.Record(Event{Kind: EvDecide, TxID: "tx-anom", Proc: 1, Note: "commit"})
	Default.Record(Event{Kind: EvDecide, TxID: "tx-anom", Proc: 2, Note: "abort"})
	before := M.CounterValue("obs.anomalies")
	d := ReportAnomaly("test-mismatch", "tx-anom", "P1=commit P2=abort")

	if got := M.CounterValue("obs.anomalies"); got != before+1 {
		t.Errorf("anomaly counter = %d, want %d", got, before+1)
	}
	if len(d.Events) != 3 { // two decides + the EvAnomaly marker
		t.Errorf("dump has %d events, want 3", len(d.Events))
	}
	if hooked.Anomaly.Kind != "test-mismatch" {
		t.Errorf("hook saw kind %q", hooked.Anomaly.Kind)
	}
	text := d.Interleaving()
	for _, want := range []string{"test-mismatch", "tx-anom", "decide", "commit", "abort"} {
		if !strings.Contains(text, want) {
			t.Errorf("interleaving missing %q:\n%s", want, text)
		}
	}
}
