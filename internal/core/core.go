// Package core defines the process model shared by every protocol in this
// repository: the event-handler style of the paper's appendix pseudocode
// (Cachin, Guerraoui & Rodrigues, "Introduction to Reliable and Secure
// Distributed Programming").
//
// A protocol is a Module. A Module runs on top of an Env, which provides the
// abstractions the paper's pseudocode "Uses":
//
//   - PerfectPointToPointLinks  ->  Env.Send / Module.Deliver
//   - Timer                     ->  Env.SetTimerAt / Module.Timeout
//   - sub-modules (e.g. IndulgentUniformConsensus inside INBAC)
//     ->  Env.Register, which routes messages and timers by instance path
//
// The same Module code runs unchanged on the deterministic discrete-event
// simulator (internal/sim) used by the complexity experiments and on the live
// goroutine runtime (internal/live) used by the public commit package.
//
// kit.go holds what the modules themselves are built from: the process and
// vote sets and the ordered send helpers.
package core

import (
	"fmt"

	"atomiccommit/internal/wire"
)

// ProcessID identifies a process. Processes are numbered 1..n exactly as in
// the paper (P1, P2, ..., Pn); 0 is not a valid ProcessID.
type ProcessID int

// String renders the paper's name for the process, e.g. "P3".
func (p ProcessID) String() string { return fmt.Sprintf("P%d", int(p)) }

// Value is a vote or a decision: 0 (abort / "no") or 1 (commit / "yes").
type Value uint8

// The two values of the atomic commit problem (paper Definition 1).
const (
	Abort  Value = 0 // vote "no" / decision abort
	Commit Value = 1 // vote "yes" / decision commit
)

// And returns the logical AND of two votes, the combining operator every
// protocol in the paper uses ("AND of all n votes").
func (v Value) And(w Value) Value {
	if v == Commit && w == Commit {
		return Commit
	}
	return Abort
}

// Valid reports whether v is one of the two legal values.
func (v Value) Valid() bool { return v == Abort || v == Commit }

func (v Value) String() string {
	if v == Commit {
		return "commit"
	}
	return "abort"
}

// Ticks is virtual (simulator) or scaled real (live runtime) time. The known
// upper bound U on message transmission delay (paper section 2.2) is
// expressed in ticks; protocols schedule timers at multiples of U.
type Ticks int64

// Message is a protocol message. Concrete types are defined by each protocol
// package. Implementations must be self-contained values (no pointers into
// protocol state) because the live runtime serializes them onto the wire
// and the simulator may deliver them arbitrarily later.
type Message interface {
	// Kind returns a short, stable tag used in traces, e.g. "V", "C", "HELP".
	Kind() string
}

// Wire is a Message with a hand-rolled binary encoding, the contract every
// message that crosses the live runtime's transports must satisfy (the
// simulator passes values in memory and needs none of this). Encodings use
// the internal/wire conventions: varint integers, length-prefixed strings
// and slices. Both runtimes exercise the codec — the TCP transport on the
// socket, the in-memory mesh as a round-trip — so an encoding bug cannot
// hide behind the mesh's reference passing.
type Wire interface {
	Message

	// WireID returns the message type's globally unique wire identifier.
	// IDs are allocated in per-package blocks (see internal/live's registry)
	// and must never be renumbered once a version has shipped: the ID is
	// the only type information on the wire.
	WireID() uint16

	// MarshalWire appends the message's encoding to b and returns the
	// extended slice, append-style: the caller owns the buffer, so a warm
	// send path allocates nothing.
	MarshalWire(b []byte) []byte

	// UnmarshalWire decodes one message from d and returns it as a fresh
	// value (the receiver is only a prototype — implementations use a value
	// receiver and do not mutate it). Decoded slices must be copies: the
	// decoder's buffer is pooled and reused after the call. Field-by-field
	// decoders may rely on d's sticky error and return d.Err() once.
	UnmarshalWire(d *wire.Decoder) (Message, error)
}

// Module is a protocol instance at one process. The runtime guarantees that
// all four methods are invoked sequentially (never concurrently) at a given
// process, mirroring the paper's model where a local step is atomic.
type Module interface {
	// Init attaches the environment. It is called exactly once, before any
	// other method, with the process-local view of the system.
	Init(env Env)

	// Propose delivers the event <Propose | v>: the process's vote (paper
	// Definition 1). Called at most once, at local time zero.
	Propose(v Value)

	// Deliver delivers the event <pl, Deliver | from, m>.
	Deliver(from ProcessID, m Message)

	// Timeout delivers the event <timer, Timeout> for the timer identified
	// by tag. Tags are module-private.
	Timeout(tag int)
}

// Env is the process-local view of the distributed system given to a Module.
type Env interface {
	// ID returns this process's identity (1..n).
	ID() ProcessID
	// N returns the number of processes in the system.
	N() int
	// F returns the maximum number of processes that may crash
	// (1 <= f <= n-1, paper section 2.1).
	F() int
	// U returns the known upper bound on message transmission delay in
	// ticks (paper section 2.2).
	U() Ticks
	// Now returns the current local time in ticks. Tick 0 is the instant of
	// Propose.
	Now() Ticks

	// Send transmits m to process "to" over a perfect point-to-point link:
	// no loss, no duplication, no corruption; eventual delivery. A message
	// to self is delivered locally and, per the paper's footnote 10, does
	// not count as a network message and arrives immediately.
	Send(to ProcessID, m Message)

	// SetTimerAt schedules Timeout(tag) at absolute time t (ticks). If t is
	// not after Now, the timeout fires as soon as possible. Several timers
	// may be pending; each firing carries its tag. At equal times, message
	// deliveries are handled before timeouts (paper Appendix A, remark (b)).
	SetTimerAt(t Ticks, tag int)

	// Decide outputs the decision event <Decide | v> for this module. A
	// module must decide at most once; the runtime records a violation of
	// the integrity property otherwise (paper footnote 4).
	Decide(v Value)

	// Register attaches a child module under the given instance name (for
	// example INBAC registers its IndulgentUniformConsensus as "iuc"). The
	// child is initialized immediately with its own Env whose Send/SetTimerAt
	// are routed independently of the parent's and whose Decide invokes
	// onDecide on the parent instead of terminating the process. Register
	// must be called during Init, at most once in the whole module tree: a
	// protocol has one sub-module, its consensus, which the live runtime
	// holds in place.
	Register(name string, child Module, onDecide func(Value))
}

// Annotator is optionally implemented by an Env whose runtime keeps a
// flight-recorder timeline (the live runtime does; the simulator has its
// own exact trace and does not). Annotations are free-form (key, note)
// pairs a protocol emits at its interesting branch points — e.g. INBAC
// reports which Figure 1 decide path it took under the key
// "decide-path" — and land in the per-transaction trace and the metrics
// registry without the protocol knowing either exists.
type Annotator interface {
	Annotate(key, note string)
}

// Annotate forwards to env's Annotator if it has one. Protocol code
// calls this at branch points; on runtimes without an Annotator it is a
// no-op. Keep notes to constant strings on hot paths — the arguments
// are evaluated even when nothing listens.
func Annotate(env Env, key, note string) {
	if a, ok := env.(Annotator); ok {
		a.Annotate(key, note)
	}
}

// NoCrash is a sentinel crash time meaning "the process is correct".
const NoCrash Ticks = 1<<62 - 1
