// Package obs is the observability layer for the live commit path: a
// flight recorder (a lock-free per-process ring buffer of compact trace
// events fed by the transports, the runtime, the protocols and kv), an
// always-on registry of atomic counters (served by package debughttp's
// opt-in /debug endpoint), and an anomaly hook that dumps the merged
// multi-process timeline of an offending transaction the moment an
// agreement violation or invariant breach is detected.
//
// Tracing is off by default and gated by one atomic flag: the disabled
// hot path is a single branch with no allocation (pinned by test), so
// the instrumentation can stay compiled into the steady-state send/recv
// path, and the ring itself is allocated on the first Enable, so a process
// that never traces pays no memory for it. Metrics are plain atomic adds
// and are always on.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/internal/core"
)

// EventKind tags what a trace event records.
type EventKind uint8

// The event kinds of the flight recorder. The instrumented layers emit:
// transports Send/Recv (with wire type-ID and encoded size), the live
// runtime Vote/TimerArm/TimerFire/Decide, protocols Annotate (decide
// path, handler names — INBAC is fully instrumented as the template),
// kv IntentAcquire/IntentConflict, and the anomaly reporter Anomaly.
const (
	EvSend EventKind = iota + 1
	EvRecv
	EvVote
	EvTimerArm
	EvTimerFire
	EvDecide
	EvAnnotate
	EvIntentAcquire
	EvIntentConflict
	EvAnomaly
)

// String names the kind for the human-readable interleaving.
func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvVote:
		return "vote"
	case EvTimerArm:
		return "timer-arm"
	case EvTimerFire:
		return "timer-fire"
	case EvDecide:
		return "decide"
	case EvAnnotate:
		return "note"
	case EvIntentAcquire:
		return "intent-acquire"
	case EvIntentConflict:
		return "intent-conflict"
	case EvAnomaly:
		return "ANOMALY"
	}
	return "?"
}

// Event is one compact flight-recorder entry. Which fields are
// meaningful depends on Kind:
//
//   - Send/Recv: Peer is the counterparty, WireID the message type ID,
//     Size the encoded envelope bytes (0 for local self-delivery).
//   - TimerArm/TimerFire: Tag is the module-private timer tag, Arg the
//     tick the timer targets (arm) or fired at (fire).
//   - Vote/Decide: Arg is the core.Value, Note its rendering.
//   - Annotate: Note is "key=value" (e.g. the INBAC Figure 1 branch).
//   - IntentAcquire/IntentConflict: Proc is the shard (1-based), Note
//     the conflicting key or footprint summary.
type Event struct {
	T      int64          `json:"t"`   // UnixNano timestamp
	HLC    HLC            `json:"hlc"` // hybrid logical clock stamp (happens-before order)
	Seq    uint64         `json:"seq"` // recorder sequence number (total order tiebreak)
	Kind   EventKind      `json:"kind"`
	Proc   core.ProcessID `json:"proc"`           // recording participant
	Peer   core.ProcessID `json:"peer,omitempty"` // counterparty, 0 if none
	TxID   string         `json:"txID"`
	Path   string         `json:"path,omitempty"` // module instance path
	WireID uint16         `json:"wireID,omitempty"`
	Size   int            `json:"size,omitempty"` // encoded bytes on the wire
	Tag    int            `json:"tag,omitempty"`  // timer tag
	Arg    int64          `json:"arg,omitempty"`  // kind-dependent scalar
	Note   string         `json:"note,omitempty"`
}

// DefaultRingSize is Default's capacity. At roughly 20 events per
// transaction per participant this holds the recent few hundred
// transactions of a 4-member cluster — comfortably more than the window
// between an anomaly occurring and its dump being taken.
const DefaultRingSize = 1 << 16

// Recorder is the flight recorder: a fixed-capacity ring of trace
// events with lock-free concurrent writers. Writers reserve a slot with
// one atomic add and publish the event with one atomic pointer store;
// readers (Snapshot, TxTimeline) load the pointers without blocking
// anybody. When disabled, Record is a single atomic load and branch.
//
// The ring is allocated by the first Enable and published through an
// atomic pointer before enabled flips, so a writer that saw enabled sees
// the ring, and a reader of a recorder never enabled sees an empty one.
type Recorder struct {
	enabled atomic.Bool
	pos     atomic.Uint64
	mask    uint64
	ring    atomic.Pointer[ring] // nil until the first Enable
	alloc   sync.Once
}

// ring is a Recorder's slots.
type ring []atomic.Pointer[Event]

// NewRecorder builds a recorder holding the most recent size events
// (rounded up to a power of two, minimum 16). It allocates no slot until
// the first Enable.
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1)}
}

// Default is the process-global flight recorder every instrumented
// layer writes to. Events carry the recording participant's ProcessID,
// so a single ring yields per-member timelines even when many
// participants share the address space (Cluster, in-process benches).
var Default = NewRecorder(DefaultRingSize)

// Enable turns tracing on, allocating the ring the first time.
func (r *Recorder) Enable() {
	r.alloc.Do(func() {
		slots := make(ring, r.mask+1)
		r.ring.Store(&slots)
	})
	r.enabled.Store(true)
}

// Disable turns tracing off; recorded events remain readable.
func (r *Recorder) Disable() { r.enabled.Store(false) }

// Enabled reports whether tracing is on. Hot paths check this before
// building an Event, so the disabled cost is one branch.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// Record appends e to the ring, overwriting the oldest entry when full.
// It is a no-op while the recorder is disabled. Safe for any number of
// concurrent callers; e.T defaults to time.Now() and e.Seq is assigned.
func (r *Recorder) Record(e Event) {
	if !r.enabled.Load() {
		return
	}
	r.publish(e)
}

// publish is kept out of Record (and out of inlining) so that the event's
// escape to the heap happens only on the enabled path: inlined, the
// escaping &e would heap-allocate Record's parameter before the enabled
// check, costing the disabled hot path an allocation (pinned at zero by
// TestDisabledRecordAllocs).
//
//go:noinline
func (r *Recorder) publish(e Event) {
	if e.T == 0 {
		e.T = time.Now().UnixNano()
	}
	if e.HLC == 0 {
		e.HLC = ProcessClock.Tick()
	}
	i := r.pos.Add(1) - 1
	e.Seq = i
	r.slots()[i&r.mask].Store(&e)
}

// Snapshot returns every event currently in the ring, in happens-before
// order (HLC, then wall timestamp, then sequence number as tiebreaks).
// It does not block writers; events recorded concurrently may or may
// not be included.
func (r *Recorder) Snapshot() []Event {
	slots := r.slots()
	out := make([]Event, 0, len(slots))
	for i := range slots {
		if p := slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sortEvents(out)
	return out
}

// TxTimeline returns the merged multi-process timeline of one
// transaction: every event in the ring with the given TxID, across all
// recording participants, in happens-before (HLC) order.
func (r *Recorder) TxTimeline(txID string) []Event {
	var out []Event
	slots := r.slots()
	for i := range slots {
		if p := slots[i].Load(); p != nil && p.TxID == txID {
			out = append(out, *p)
		}
	}
	sortEvents(out)
	return out
}

// Reset drops every recorded event (the enabled flag is untouched).
// Intended for tests and between benchmark points.
func (r *Recorder) Reset() {
	slots := r.slots()
	for i := range slots {
		slots[i].Store(nil)
	}
}

// slots returns the ring, empty if the recorder was never enabled.
func (r *Recorder) slots() ring {
	if p := r.ring.Load(); p != nil {
		return *p
	}
	return nil
}

// sortEvents orders a merged timeline by happens-before: primary key is
// the HLC stamp (causally consistent within and across processes),
// falling back to wall time then recorder sequence for events recorded
// before tracing stamped an HLC (e.g. hand-built test events).
func sortEvents(ev []Event) {
	sort.Slice(ev, func(i, j int) bool {
		if ev[i].HLC != ev[j].HLC {
			return ev[i].HLC < ev[j].HLC
		}
		if ev[i].T != ev[j].T {
			return ev[i].T < ev[j].T
		}
		return ev[i].Seq < ev[j].Seq
	})
}
