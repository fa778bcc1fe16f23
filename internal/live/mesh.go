package live

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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

// Inbox is a FIFO of values that one long-lived goroutine hands, in order, to
// the function it was made with: the commit host's workers (a mesh
// destination's deliveries, a peer's apply worker) in place of a goroutine
// per value. Push never blocks and allocates nothing once the queue reached
// its working size; the goroutine swaps the whole queue out and runs it with
// the lock released.
type Inbox[T any] struct {
	mu     sync.Mutex
	wake   sync.Cond
	q      []T
	idle   bool        // the goroutine waits for a Push
	closed atomic.Bool // written under mu; read per value by the goroutine
}

// NewInbox starts the goroutine that runs handle on every value pushed.
func NewInbox[T any](handle func(T)) *Inbox[T] {
	b := &Inbox[T]{}
	b.wake.L = &b.mu
	go b.run(handle)
	return b
}

// Push queues v, reporting false — v dropped — once the inbox is closed.
func (b *Inbox[T]) Push(v T) bool {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return false
	}
	b.q = append(b.q, v)
	wake := b.idle
	b.idle = false
	b.mu.Unlock()
	if wake {
		b.wake.Signal()
	}
	return true
}

// Close stops the inbox, like a crash: what is queued is dropped and the
// goroutine exits once the value in hand, if any, is done. It does not wait
// for that.
func (b *Inbox[T]) Close() {
	b.mu.Lock()
	b.closed.Store(true)
	b.q = nil
	b.mu.Unlock()
	b.wake.Signal()
}

func (b *Inbox[T]) run(handle func(T)) {
	var batch []T
	for {
		b.mu.Lock()
		for len(b.q) == 0 && !b.closed.Load() {
			b.idle = true
			b.wake.Wait()
		}
		batch, b.q = b.q, batch[:0]
		b.mu.Unlock()
		for i := range batch {
			if b.closed.Load() {
				return
			}
			handle(batch[i])
		}
		if b.closed.Load() {
			return
		}
		clear(batch)
	}
}

// Mesh is an in-memory network connecting n processes in one address space:
// the transport behind the public commit.Cluster. Latency and partitions are
// injectable through SetShaper, which the tests use.
//
// Each destination has one inbox, drained in arrival order by one goroutine
// that runs the destination's handler — the mesh twin of a TCP read loop: a
// handler that blocks holds up deliveries to its own process only. An
// envelope that the shaper delays reaches its inbox from the deadline heap
// (After), so nothing on the mesh starts a goroutine or a runtime timer per
// envelope.
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
	mu      sync.RWMutex
	inboxes map[core.ProcessID]*Inbox[meshItem]
	shaper  LinkShaper
}

// meshItem is one entry of a destination's inbox: an envelope and its
// encoded size.
type meshItem struct {
	e    Envelope
	size int
}

// NewMesh returns an empty mesh.
func NewMesh() *Mesh {
	return &Mesh{inboxes: make(map[core.ProcessID]*Inbox[meshItem])}
}

// SetShaper shapes every envelope the mesh carries, as TCP.SetShaper does a
// process's outbound ones; a zero LinkShaper removes shaping. A Drop makes
// perfect links the caller's responsibility, as with the simulator's adversary.
func (m *Mesh) SetShaper(s LinkShaper) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shaper = s
}

// Jitter returns a LinkShaper Delay function uniform in [base, base+spread).
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

// SetHandler starts the endpoint's inbox, replacing (and closing) an earlier
// one.
func (t *meshEndpoint) SetHandler(h func(Envelope)) {
	in := NewInbox(func(it meshItem) { deliverMesh(h, it) })
	t.mesh.mu.Lock()
	old := t.mesh.inboxes[t.id]
	t.mesh.inboxes[t.id] = in
	t.mesh.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// deliverMesh runs h on one inbox entry, on the destination's goroutine.
func deliverMesh(h func(Envelope), it meshItem) {
	e := it.e
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
			Path: e.Path, WireID: wid, Size: it.size,
			HLC: now, Arg: int64(e.HLC),
		})
	}
	h(e)
}

// meshBuf is the pooled scratch for the mesh's codec round-trip. The
// decoder lives here because decodeEnvelope's payload decode makes it
// escape: on the stack it would be a heap allocation per envelope.
type meshBuf struct {
	frame   []byte
	scratch []byte
	d       wire.Decoder
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
	bb.d.Reset(bb.frame)
	out, err := decodeEnvelope(&bb.d)
	if err != nil {
		return Envelope{}, 0, fmt.Errorf("live: mesh codec round-trip of %T: %w", e.Msg, err)
	}
	return out, len(bb.frame), nil
}

func (t *meshEndpoint) Send(e Envelope) error {
	t.mesh.mu.RLock()
	in := t.mesh.inboxes[e.To]
	sh := t.mesh.shaper
	t.mesh.mu.RUnlock()
	if in == nil || (sh.Drop != nil && sh.Drop(e)) {
		return nil // silence models a crashed/partitioned peer
	}
	size := 0
	if w, ok := e.Msg.(core.Wire); ok {
		// Same stamping discipline as TCP: the HLC is assigned at send
		// time, rides the encoded envelope, and any injected latency
		// happens after it — so the receiver's Observe measures the
		// modeled one-way delay. Unobserved, the stamp is 0.
		e.HLC = obs.SendStamp()
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
	it := meshItem{e: e, size: size}
	if sh.Delay != nil {
		if d := sh.Delay(e); d > 0 {
			After(d, func() { in.Push(it) })
			return nil
		}
	}
	in.Push(it)
	return nil
}

func (t *meshEndpoint) Close() error {
	t.mesh.mu.Lock()
	in := t.mesh.inboxes[t.id]
	delete(t.mesh.inboxes, t.id)
	t.mesh.mu.Unlock()
	if in != nil {
		in.Close()
	}
	return nil
}
