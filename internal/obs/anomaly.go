package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Anomaly identifies one detected correctness problem on the live
// commit path: an agreement-check failure, an audited property
// violation, an invariant breach.
type Anomaly struct {
	Kind   string    `json:"kind"`
	TxID   string    `json:"txID"`
	Detail string    `json:"detail"`
	Time   time.Time `json:"time"`
}

// Dump is an anomaly plus the merged multi-process flight-recorder
// timeline of the offending transaction, in time order across every
// recording participant.
type Dump struct {
	Anomaly Anomaly `json:"anomaly"`
	Events  []Event `json:"events"`
}

// Interleaving renders the dump as a human-readable merged timeline:
// one line per event in happens-before order, the time column showing
// the HLC physical offset from the first event plus the logical
// counter, one column naming the recording participant — the
// message/timer interleaving that produced the anomaly, readable top to
// bottom. Recv lines name the send they causally follow.
func (d *Dump) Interleaving() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ANOMALY %s tx=%s: %s\n", d.Anomaly.Kind, d.Anomaly.TxID, d.Anomaly.Detail)
	if len(d.Events) == 0 {
		b.WriteString("  (no trace events: was the flight recorder enabled?)\n")
		return b.String()
	}
	h0 := d.Events[0].HLC
	fmt.Fprintf(&b, "merged timeline, %d events, hlc0=%s (%s):\n",
		len(d.Events), h0, h0.Time().Format(time.RFC3339Nano))
	for _, e := range d.Events {
		fmt.Fprintf(&b, "  %+10.3fms/%-3d %-3s %-14s %s\n",
			float64(e.HLC.Sub(h0))/1e6, e.HLC.Logical(), e.Proc.String(), e.Kind.String(), eventDetail(e))
	}
	return b.String()
}

// eventDetail renders the kind-dependent tail of one interleaving line.
func eventDetail(e Event) string {
	var s string
	switch e.Kind {
	case EvSend:
		s = fmt.Sprintf("-> %s wire=%d %dB", e.Peer, e.WireID, e.Size)
	case EvRecv:
		s = fmt.Sprintf("<- %s wire=%d %dB", e.Peer, e.WireID, e.Size)
		if e.Arg != 0 {
			// Arg carries the envelope's send-side HLC stamp: the
			// explicit happens-before edge back to the matching send.
			s += fmt.Sprintf(" after-send=%s", HLC(e.Arg))
		}
	case EvVote, EvDecide:
		s = e.Note
	case EvTimerArm:
		s = fmt.Sprintf("tag=%d at=%dU-ticks", e.Tag, e.Arg)
	case EvTimerFire:
		s = fmt.Sprintf("tag=%d now=%d-ticks", e.Tag, e.Arg)
	default:
		s = e.Note
	}
	if e.Path != "" {
		s += " path=" + e.Path
	}
	return s
}

var anomalyHook atomic.Value // func(Dump)

// SetAnomalyHook installs f to be called (synchronously) with every
// reported anomaly's dump; nil uninstalls. The commit runtime and the
// auditor report agreement violations here; the hook is the one way out of
// the process for a dump, so a test that watches for anomalies (such as
// TestAuditedLoad, which fails with d.Interleaving()) installs one.
func SetAnomalyHook(f func(Dump)) {
	if f == nil {
		anomalyHook.Store(func(Dump) {})
		return
	}
	anomalyHook.Store(f)
}

// ReportAnomaly records an anomaly: bumps the anomaly counter, stamps
// an EvAnomaly event into the flight recorder, assembles the offending
// transaction's merged timeline, and invokes the anomaly hook. It returns
// the dump.
func ReportAnomaly(kind, txID, detail string) Dump {
	M.Counter("obs.anomalies").Add(1)
	Default.Record(Event{Kind: EvAnomaly, TxID: txID, Note: kind + ": " + detail})
	d := Dump{
		Anomaly: Anomaly{Kind: kind, TxID: txID, Detail: detail, Time: time.Now()},
		Events:  Default.TxTimeline(txID),
	}
	if f, _ := anomalyHook.Load().(func(Dump)); f != nil {
		f(d)
	}
	return d
}
