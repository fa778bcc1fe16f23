package live

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/wire"
)

// Mesh metrics: the mesh round-trips the same codec as TCP, so its
// per-envelope byte counts are real wire footprints.
var (
	mMeshEnvelopes = obs.M.Counter("live.mesh.envelopes")
	mMeshBytes     = obs.M.Counter("live.mesh.bytes")
)

// Mesh is an in-memory network connecting n processes in one address space:
// the transport behind the public commit.Cluster. Latency and partitions are
// injectable, which the failure examples and tests use.
//
// Every envelope whose message implements core.Wire is round-tripped through
// the same binary codec the TCP transport puts on the socket (encode into a
// pooled buffer, decode into a fresh value, deliver the copy). That keeps
// the two runtimes on one wire contract — an encoding bug or a forgotten
// field surfaces in every mesh test, not only under TCP — and gives mesh
// deliveries the same copy semantics as real networking: a receiver can
// never alias the sender's slices. Messages that do not implement core.Wire
// (test doubles) are delivered by reference as before.
type Mesh struct {
	mu       sync.RWMutex
	handlers map[core.ProcessID]func(Envelope)

	// Latency returns the artificial one-way latency of an envelope; nil
	// means deliver as fast as the scheduler allows.
	Latency func(e Envelope) time.Duration
	// Drop suppresses delivery (a crashed or partitioned destination); the
	// perfect-links assumption is the caller's responsibility, exactly as
	// with the simulator's adversary.
	Drop func(e Envelope) bool
}

// NewMesh returns an empty mesh.
func NewMesh() *Mesh {
	return &Mesh{handlers: make(map[core.ProcessID]func(Envelope))}
}

// Jitter returns a Latency function uniform in [base, base+spread).
func Jitter(base, spread time.Duration, seed int64) func(Envelope) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(Envelope) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		if spread <= 0 {
			return base
		}
		return base + time.Duration(rng.Int63n(int64(spread)))
	}
}

// Endpoint returns the transport of process id.
func (m *Mesh) Endpoint(id core.ProcessID) Transport {
	return &meshEndpoint{mesh: m, id: id}
}

type meshEndpoint struct {
	mesh *Mesh
	id   core.ProcessID
}

func (t *meshEndpoint) SetHandler(h func(Envelope)) {
	t.mesh.mu.Lock()
	defer t.mesh.mu.Unlock()
	t.mesh.handlers[t.id] = h
}

// meshBuf is the pooled scratch pair for the mesh's codec round-trip.
type meshBuf struct {
	frame   []byte
	scratch []byte
}

var meshBufPool = sync.Pool{New: func() any { return new(meshBuf) }}

// roundTrip encodes and decodes e through the wire codec (see the Mesh
// comment), reporting the encoded size. The returned envelope owns all
// of its memory: the pooled buffer is released before returning.
func roundTrip(e Envelope) (Envelope, int, error) {
	bb := meshBufPool.Get().(*meshBuf)
	defer meshBufPool.Put(bb)
	var err error
	bb.frame, bb.scratch, err = appendEnvelope(bb.frame[:0], &e, bb.scratch)
	if err != nil {
		return Envelope{}, 0, err
	}
	var d wire.Decoder
	d.Reset(bb.frame)
	out, err := decodeEnvelope(&d)
	if err != nil {
		return Envelope{}, 0, fmt.Errorf("live: mesh codec round-trip of %T: %w", e.Msg, err)
	}
	return out, len(bb.frame), nil
}

func (t *meshEndpoint) Send(e Envelope) error {
	t.mesh.mu.RLock()
	h := t.mesh.handlers[e.To]
	drop := t.mesh.Drop
	lat := t.mesh.Latency
	t.mesh.mu.RUnlock()
	if h == nil || (drop != nil && drop(e)) {
		return nil // silence models a crashed/partitioned peer
	}
	size := 0
	if w, ok := e.Msg.(core.Wire); ok {
		// Same stamping discipline as TCP: the HLC is assigned at send
		// time, rides the encoded envelope, and any injected latency
		// happens after it — so the receiver's Observe measures the
		// modeled one-way delay.
		e.HLC = obs.ProcessClock.Tick()
		var err error
		if e, size, err = roundTrip(e); err != nil {
			return err
		}
		mMeshEnvelopes.Add(1)
		mMeshBytes.Add(int64(size))
		if obs.Default.Enabled() {
			obs.Default.Record(obs.Event{
				Kind: obs.EvSend, TxID: e.TxID, Proc: e.From, Peer: e.To,
				Path: e.Path, WireID: w.WireID(), Size: size, HLC: e.HLC,
			})
		}
	}
	deliver := func() {
		var now obs.HLC
		if e.HLC != 0 {
			now = obs.ProcessClock.Observe(e.HLC)
		}
		if obs.Default.Enabled() {
			var wid uint16
			if w, ok := e.Msg.(core.Wire); ok {
				wid = w.WireID()
			}
			obs.Default.Record(obs.Event{
				Kind: obs.EvRecv, TxID: e.TxID, Proc: e.To, Peer: e.From,
				Path: e.Path, WireID: wid, Size: size,
				HLC: now, Arg: int64(e.HLC),
			})
		}
		h(e)
	}
	if lat != nil {
		time.AfterFunc(lat(e), deliver)
	} else {
		go deliver()
	}
	return nil
}

func (t *meshEndpoint) Close() error {
	t.mesh.mu.Lock()
	defer t.mesh.mu.Unlock()
	delete(t.mesh.handlers, t.id)
	return nil
}
