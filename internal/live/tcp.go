package live

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/wire"
)

// Transport metrics, resolved once so the per-envelope cost is a couple
// of atomic adds (the flight recorder is additionally gated by its
// enabled flag; see obs). These feed the bench columns and /debug.
var (
	mSendEnvelopes = obs.M.Counter("live.send.envelopes")
	mSendBytes     = obs.M.Counter("live.send.bytes")
	mFlushFrames   = obs.M.Counter("live.tcp.flush.frames")
	mDials         = obs.M.Counter("live.tcp.dials")
	mEvictions     = obs.M.Counter("live.tcp.evictions") // dead conns dropped; the next Send redials
)

// readBufferSize is the per-connection read buffer. Frames are small: on the
// repo benchmark (bytes_per_commit ÷ frames_per_commit) they average 168 B on
// peer-tcp-steady, 256 B on peer-tcp-overload, 77 B on kv-tcp-write and 68 B
// on kv-geo-read, so 4 KiB holds a dozen or more per read syscall. A larger
// frame is not cut: the reader reads it whole into its reused frame buffer,
// straight from the socket once the buffered bytes are spent.
const readBufferSize = 4 << 10

// Frame layout: everything buffered between two flushes — envelopes from
// MANY protocol instances (the pipeline runs hundreds concurrently) — goes
// out as ONE length-prefixed frame in one writev:
//
//	byte     version (frameVersion)
//	uvarint  length of the envelope block
//	bytes    envelopes, back to back (see wire.go for the envelope layout)
//
// The reader slurps a whole frame into a reused buffer and dispatches every
// envelope, so a deep pipeline pays one read syscall per batch, mirroring
// the writer.
const (
	// frameVersion 0x02: envelopes gained the fixed64 HLC stamp (wire.go).
	// A reader refuses other versions, so mixed-version peers degrade to
	// silence — the crash semantics the protocols already tolerate.
	frameVersion = 0x02
	// maxFrameSize bounds a frame on the read side: a corrupt length prefix
	// must not convince us to allocate gigabytes. 8 MiB is orders of
	// magnitude above anything the protocols produce per flush; a writer
	// whose backlog outgrew it cuts the backlog into frames below it.
	maxFrameSize = 8 << 20
)

// TCP is the cross-address-space transport: envelopes in the hand-rolled wire
// codec over one connection per destination, dialed lazily with bounded
// retries. An unreachable peer behaves as crashed (sends are dropped
// silently), which is precisely the failure model the protocols handle.
//
// Every connection carries envelopes both ways, and who listens follows from
// the address table: a process whose ID has an address there (a peer) listens
// on it and is reached by dialing it — peer to peer, one dialed connection per
// direction. A process whose ID has none (a client) dials and never listens:
// it reads replies off the connections it dialed, and the accepting side binds
// such a connection to the From of the envelopes arriving on it, so a Send to
// that ID writes there. An ID with a configured address is never bound —
// whatever an inbound connection claims, a peer is reached at its listener. A
// newer connection from the same ID takes the binding over, the record goes
// when the connection's read loop ends, and a Send to an ID with neither
// address nor connection is dropped: it looks crashed.
//
// Send never waits for the network, dialing included: the first envelope for
// a destination creates its connection record, which buffers envelopes in
// sending order from then on, and one goroutine per record dials, then
// flushes. Protocol handlers send, and one goroutine runs every timer handler
// of the process (deadline.go); a dial inside Send would stall them all.
//
// Writes are batched and allocation-free at steady state: Send appends the
// envelope's encoding to a per-connection pending buffer (no intermediate
// objects, no reflection) and a dedicated flush loop swaps in a spare buffer
// and pushes the full frame to the socket. While one frame is in flight,
// concurrent senders keep appending to the other buffer, so a pipeline with
// thousands of in-flight envelopes pays one syscall per frame rather than
// one per message. Before it swaps, the flush loop yields once, so that the
// goroutines one event readied (a frame's deliveries, due deadlines, the
// clients a burst of results woke) append first and share its writev. That
// yield is all a lone envelope waits for: there is no timer and no size
// threshold, and each connection stays FIFO.
type TCP struct {
	id core.ProcessID

	ln      net.Listener // nil in a process that only dials
	handler func(Envelope)

	mu      sync.Mutex
	addrs   map[core.ProcessID]string
	shaper  LinkShaper
	conns   map[core.ProcessID]*tcpConn
	inbound map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	// closing is cancelled by Close, so that a dial in progress returns.
	closing context.Context
	cancel  context.CancelFunc
}

type tcpConn struct {
	// to is the ID the record is mapped under in TCP.conns. TCP.mu guards it:
	// bind moves an accepted connection's record when its sender's ID changes.
	to   core.ProcessID
	addr string // dialed by connLoop; "" on an accepted connection
	// kick (capacity 1) tells the flush loop the buffer is dirty. At most
	// one kick is pending however many sends encode during a flush — that
	// is the coalescing. Senders kick only under mu with shutdown checked,
	// so shut's close(kick) cannot race a send on the channel.
	kick chan struct{}

	mu      sync.Mutex
	c       net.Conn // nil until the dial succeeded
	pending []byte   // encoded envelopes awaiting the next flush
	scratch []byte   // per-message payload scratch for appendEnvelope
	// cuts are the offsets in pending where a frame must end so that none
	// exceeds maxFrameSize: empty unless the socket fell 8 MiB behind.
	cuts     []int
	cutFrom  int   // where pending's last frame begins
	err      error // sticky: first encode/flush failure; the conn is dead after
	shutdown bool
}

// dead reports whether the connection can no longer carry envelopes.
func (conn *tcpConn) dead() bool {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return conn.err != nil || conn.shutdown
}

// shut makes the connection unusable and stops its flush loop. Idempotent;
// safe to call from Send, the flush loop, and Close concurrently.
func (conn *tcpConn) shut() {
	conn.mu.Lock()
	if !conn.shutdown {
		conn.shutdown = true
		close(conn.kick)
	}
	c := conn.c
	conn.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// NewTCP starts a transport for process id: addrs[i-1] is Pi's listen
// address. If id has one, the listener is bound immediately; an id beyond
// addrs only dials (see TCP). Handlers may be set later but before peers start
// sending.
func NewTCP(id core.ProcessID, addrs []string) (*TCP, error) {
	m := make(map[core.ProcessID]string, len(addrs))
	for i, a := range addrs {
		m[core.ProcessID(i+1)] = a
	}
	t := &TCP{id: id, addrs: m,
		conns:   make(map[core.ProcessID]*tcpConn),
		inbound: make(map[net.Conn]struct{})}
	t.closing, t.cancel = context.WithCancel(context.Background())
	if addr, listens := m[id]; listens {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("live: listen %s: %w", addr, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// Addr returns the bound listen address (useful with ":0" ephemeral ports),
// "" in a process that only dials.
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetHandler implements Transport.
func (t *TCP) SetHandler(h func(Envelope)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// SetShaper installs a link shaper on this process's outbound envelopes
// (see NetProfile.Shaper). A zero LinkShaper removes shaping. Envelopes a
// shaper delays wait on the deadline heap (After) and are enqueued late, on
// the timer goroutine — enqueue only encodes into a buffer; envelopes it drops
// vanish — to the receiver either looks like the network being slow or the
// sender being crashed, the two failure modes the protocols already absorb.
func (t *TCP) SetShaper(s LinkShaper) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shaper = s
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.inbound[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c, nil)
	}
}

// readLoop decodes frames off one connection: an accepted one, or, in a
// process that does not listen, one it dialed. conn is the record that writes
// to c — the dialed one, or nil until bind gives an accepted connection one —
// and it goes when the loop ends. Any framing or codec error drops the
// connection — the peer then looks crashed, which the protocols tolerate —
// except an unknown message type ID, which is skipped envelope by envelope so
// mixed-version peers keep interoperating on the types both sides know.
func (t *TCP) readLoop(c net.Conn, conn *tcpConn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, c)
		t.mu.Unlock()
		c.Close()
		if conn != nil {
			t.forget(conn)
		}
	}()
	var from core.ProcessID // sender of the last envelope
	br := bufio.NewReaderSize(c, readBufferSize)
	var frame []byte // reused across frames
	var d wire.Decoder
	for {
		ver, err := br.ReadByte()
		if err != nil || ver != frameVersion {
			return
		}
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxFrameSize {
			return
		}
		if uint64(cap(frame)) < n {
			frame = make([]byte, n)
		}
		frame = frame[:n]
		if _, err := io.ReadFull(br, frame); err != nil {
			return
		}
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		d.Reset(frame)
		for d.Remaining() > 0 {
			before := d.Remaining()
			e, err := decodeEnvelope(&d)
			if err != nil {
				if errors.Is(err, errUnknownWireID) {
					continue
				}
				return
			}
			if e.From != from {
				from = e.From
				conn = t.bind(from, c, conn)
			}
			// Merge the sender's stamp into the local clock (the HLC
			// receive rule): everything this process records after the
			// delivery is causally after the matching send. An unobserved
			// sender stamps nothing, and there is nothing to merge.
			var now obs.HLC
			if e.HLC != 0 {
				now = obs.ProcessClock.Observe(e.HLC)
			}
			if obs.Default.Enabled() {
				obs.Default.Record(obs.Event{
					Kind: obs.EvRecv, TxID: e.TxID, Proc: e.To, Peer: e.From,
					Path: e.Path, WireID: e.Msg.(core.Wire).WireID(),
					Size: before - d.Remaining(),
					HLC:  now, Arg: int64(e.HLC), // Arg: edge back to the send
				})
			}
			if h != nil {
				h(e)
			}
		}
	}
}

// bind makes c, an accepted connection, the way to from — the sender of the
// envelopes arriving on it — unless from has a configured address: a peer is
// reached at its listener, whatever an inbound connection claims. conn is c's
// record, nil before the first binding; a sender that changes its ID takes the
// record along. The record from was bound to before, on a connection its
// sender abandoned, is shut.
func (t *TCP) bind(from core.ProcessID, c net.Conn, conn *tcpConn) *tcpConn {
	t.mu.Lock()
	if _, peer := t.addrs[from]; peer || t.closed || (conn != nil && conn.addr != "") {
		t.mu.Unlock()
		return conn
	}
	if conn == nil {
		conn = &tcpConn{c: c, kick: make(chan struct{}, 1)}
		t.wg.Add(1)
		go t.connLoop(conn)
	} else if t.conns[conn.to] == conn {
		delete(t.conns, conn.to)
	}
	stale := t.conns[from]
	conn.to = from
	t.conns[from] = conn
	t.mu.Unlock()
	if stale != nil {
		stale.shut()
	}
	return conn
}

// Send implements Transport. The envelope is encoded into the destination's
// pending buffer; its connLoop owns the dial and the socket writes. An
// unreachable peer is indistinguishable from a crashed one, which is exactly
// what the protocols tolerate: what was buffered for it is dropped silently. A
// connection with a sticky error is evicted and replaced here, so one broken
// socket never eats sends forever.
func (t *TCP) Send(e Envelope) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	shaper := t.shaper
	t.mu.Unlock()

	// Stamp the hybrid logical clock at send time, before any shaping
	// delay — a shaped envelope models a slow network, and the receiver
	// measures that slowness as (receive HLC − stamp). Unobserved, the
	// stamp is 0 and reads no clock (see obs.SendStamp).
	e.HLC = obs.SendStamp()

	if shaper.Drop != nil && shaper.Drop(e) {
		return nil // partitioned: silence, exactly like a crashed peer
	}
	if shaper.Delay != nil {
		if d := shaper.Delay(e); d > 0 {
			After(d, func() { t.enqueue(e) })
			return nil
		}
	}
	return t.enqueue(e)
}

// enqueue is Send past the shaper: encode into the destination's pending
// buffer.
func (t *TCP) enqueue(e Envelope) error {
	// At most one eviction per Send: a conn found dead (sticky encode/flush
	// error, or shut by a concurrent Close of the peer) is forgotten so this
	// send — not some later one — goes out on a fresh one.
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := t.conn(e.To)
		if conn == nil {
			return err
		}
		conn.mu.Lock()
		if conn.err != nil || conn.shutdown {
			conn.mu.Unlock()
			t.forget(conn)
			continue
		}
		before := len(conn.pending)
		conn.pending, conn.scratch, err = appendEnvelope(conn.pending, &e, conn.scratch)
		if err != nil {
			// Not a network failure: the message type cannot go on the
			// wire (unregistered / not core.Wire). Surface the bug.
			conn.mu.Unlock()
			return err
		}
		if len(conn.pending)-conn.cutFrom > maxFrameSize && before > conn.cutFrom {
			conn.cuts = append(conn.cuts, before)
			conn.cutFrom = before
		}
		size := len(conn.pending) - before
		mSendEnvelopes.Add(1)
		mSendBytes.Add(int64(size))
		if obs.Default.Enabled() {
			obs.Default.Record(obs.Event{
				Kind: obs.EvSend, TxID: e.TxID, Proc: e.From, Peer: e.To,
				Path: e.Path, WireID: e.Msg.(core.Wire).WireID(), Size: size,
				HLC: e.HLC,
			})
		}
		select {
		case conn.kick <- struct{}{}:
		default: // a flush is already pending; it will carry this envelope
		}
		conn.mu.Unlock()
		return nil
	}
	return nil
}

// conn returns the connection record of destination to, creating it — and
// the one goroutine that dials and then flushes it — with the first envelope
// for it. A nil record with a nil error means to has neither a configured
// address nor a connection bound to it: the envelope is dropped.
func (t *TCP) conn(to core.ProcessID) (*tcpConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if conn := t.conns[to]; conn != nil {
		return conn, nil
	}
	addr, ok := t.addrs[to]
	if !ok {
		return nil, nil
	}
	conn := &tcpConn{to: to, addr: addr, kick: make(chan struct{}, 1)}
	t.conns[to] = conn
	t.wg.Add(1)
	go t.connLoop(conn)
	return conn, nil
}

// dial connects to conn.addr, with a few retries; nil means it could not. It
// gives up at once when the transport closes, and early on a connection
// already shut.
func (t *TCP) dial(conn *tcpConn) net.Conn {
	d := net.Dialer{Timeout: 500 * time.Millisecond}
	for attempt := 1; attempt <= 5 && !conn.dead(); attempt++ {
		if c, err := d.DialContext(t.closing, "tcp", conn.addr); err == nil {
			mDials.Add(1)
			return c
		}
		select {
		case <-t.closing.Done():
			return nil
		case <-time.After(time.Duration(20*attempt) * time.Millisecond):
		}
	}
	return nil
}

// connLoop dials, unless the connection was accepted, then drains the
// connection's pending buffer to the socket as one length-prefixed frame per
// kick — one writev per batch of sends — until the connection shuts or a
// write fails. Each kick first yields the processor once (runtime.Gosched):
// goroutines that were already runnable, and would append for this
// connection, do so before the swap, so their envelopes ride this frame
// rather than the next. Two buffers rotate between the senders and the
// flusher, so encoding never waits on the network. What was buffered for a
// peer that cannot be dialed is dropped with the record.
func (t *TCP) connLoop(conn *tcpConn) {
	defer t.wg.Done()
	c := conn.c // an accepted connection's; nil on a record to be dialed
	if c == nil {
		if c = t.dial(conn); c != nil {
			conn.mu.Lock()
			if conn.shutdown {
				c.Close()
				c = nil
			} else {
				conn.c = c
			}
			conn.mu.Unlock()
		}
		if c == nil {
			t.unmap(conn)
			return
		}
		if t.ln == nil {
			// Nobody can dial this process: what the peer has for it comes
			// back on c. A process that listens is dialed, and would only pay
			// for a reader nothing is written to.
			t.wg.Add(1)
			go t.readLoop(c, conn)
		}
	}
	var spare []byte
	var spareCuts []int
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = frameVersion
	// The header and the frame of one writev. WriteTo takes its vector by
	// pointer, so one built per flush would cost two allocations a frame.
	var vec [2][]byte
	var bufs net.Buffers
	write := func(frame []byte) error {
		mFlushFrames.Add(1)
		n := 1 + binary.PutUvarint(hdr[1:], uint64(len(frame)))
		vec = [2][]byte{hdr[:n], frame}
		bufs = vec[:]
		_, err := bufs.WriteTo(c)
		return err
	}
	flush := func() error {
		conn.mu.Lock()
		if conn.err != nil {
			err := conn.err
			conn.mu.Unlock()
			return err
		}
		if len(conn.pending) == 0 {
			conn.mu.Unlock()
			return nil
		}
		block, cuts := conn.pending, conn.cuts
		conn.pending, conn.cuts, conn.cutFrom = spare[:0], spareCuts[:0], 0
		conn.mu.Unlock()

		var err error
		from := 0
		for _, cut := range cuts {
			if err = write(block[from:cut]); err != nil {
				break
			}
			from = cut
		}
		if err == nil {
			err = write(block[from:])
		}
		spare, spareCuts = block[:0], cuts[:0] // recycle for the next swap
		if err != nil {
			conn.mu.Lock()
			if conn.err == nil {
				conn.err = err
			}
			conn.mu.Unlock()
		}
		return err
	}
	for range conn.kick {
		// Let the goroutines already runnable append first: the rest of a
		// read loop's frame, the timer goroutine's due deadlines, the
		// clients one result burst woke. Their envelopes then share this
		// frame and its writev instead of each waking the loop once more.
		runtime.Gosched()
		if flush() != nil {
			t.forget(conn)
			return
		}
	}
	// kick closed: best-effort final frame for whatever was buffered.
	flush()
}

// forget drops a dead connection so the next Send starts a fresh one.
func (t *TCP) forget(conn *tcpConn) {
	if t.unmap(conn) {
		mEvictions.Add(1)
	}
}

// unmap shuts conn and, if it still is the record of its destination,
// removes it from the connection map, reporting whether it was.
func (t *TCP) unmap(conn *tcpConn) bool {
	t.mu.Lock()
	mapped := t.conns[conn.to] == conn
	if mapped {
		delete(t.conns, conn.to)
	}
	t.mu.Unlock()
	conn.shut()
	return mapped
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = make(map[core.ProcessID]*tcpConn)
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()

	t.cancel()
	if t.ln != nil {
		t.ln.Close()
	}
	for _, c := range conns {
		c.shut()
	}
	for _, c := range inbound {
		c.Close()
	}
	t.wg.Wait()
	return nil
}
