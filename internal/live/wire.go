package live

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"atomiccommit/internal/core"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/wire"
)

// The wire type-ID registry. Every message type that crosses a transport
// implements core.Wire and is registered once (the public commit package
// registers the whole protocol family at init, from the prototypes
// internal/protocols' registry and internal/consensus list). The ID is the only type
// information on the wire, so IDs are allocated in per-package blocks and
// never renumbered:
//
//	 1..7    commit (1 beginMsg, 2 decideMsg, 6 resultMsg; 3, 4, 5 and 7,
//	         once the client's hello, stageAck, bare go and unstage, are
//	         retired: never reuse)
//	 8..14   internal/consensus (incl. flooding)
//	16..20   protocols/inbac
//	24..26   protocols/twopc (24, once MsgReq, is retired: never reuse)
//	28..32   protocols/threepc
//	36..42   protocols/paxoscommit
//	46..47   protocols/onenbac
//	50..51   protocols/avnbac
//	54..56   protocols/zeronbac
//	60       protocols/chainnbac
//	63..65   protocols/anbac (62, once its copy of chainnbac's aggregate,
//	         is retired: never reuse)
//	68..69   protocols/hubnbac
//	72..76   protocols/fullnbac
//	80..87   kv (80 footprint, 86 relay — the one kv query: a read, a
//	         validation, or a read passed along the far owners; the read,
//	         readReply with and without per-key intent bits, validate and
//	         validateReply, once 81, 82, 87, 84 and 85, are retired: never
//	         reuse)
//	83       commit (stageGoMsg — the one client message that starts a
//	         commit, its footprint empty for a bare commit)
//	>= 240   reserved for tests
//
// Versioning: adding a message type takes a fresh ID; removing one retires
// its ID forever; changing a type's fields is a wire break and needs a new
// ID (the old one stays registered during a rolling upgrade). A decoder
// that meets an unknown ID skips that envelope — the payload is
// length-prefixed exactly so mixed-version peers degrade to silence (which
// the protocols already tolerate as a crash) instead of poisoning the
// stream.
var (
	wireMu   sync.RWMutex
	wireByID = make(map[uint16]core.Wire)
)

// RegisterWire records a message prototype under its WireID so incoming
// envelopes can be decoded. It panics on an ID collision between distinct types — a mis-allocated ID
// block is a programming error that must not survive init.
func RegisterWire(m core.Wire) {
	wireMu.Lock()
	defer wireMu.Unlock()
	id := m.WireID()
	if prev, ok := wireByID[id]; ok {
		if fmt.Sprintf("%T", prev) != fmt.Sprintf("%T", m) {
			panic(fmt.Sprintf("live: wire ID %d claimed by both %T and %T", id, prev, m))
		}
		return
	}
	wireByID[id] = m
}

// RegisteredWires returns a snapshot of every registered message prototype,
// ordered by ID — the codec tests round-trip all of them.
func RegisteredWires() []core.Wire {
	wireMu.RLock()
	defer wireMu.RUnlock()
	all := make([]core.Wire, 0, len(wireByID))
	for _, m := range wireByID {
		all = append(all, m)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].WireID() < all[j].WireID() })
	return all
}

func wireLookup(id uint16) (core.Wire, bool) {
	wireMu.RLock()
	m, ok := wireByID[id]
	wireMu.RUnlock()
	return m, ok
}

// errUnknownWireID marks an envelope whose type ID is not registered. The
// envelope's bytes were fully consumed, so the caller may skip it and keep
// decoding the frame (mixed-version peer) — every other decode error means
// the stream is corrupt.
var errUnknownWireID = errors.New("live: unknown wire type ID")

// Envelope wire layout (field order is the struct's; frame version 0x02
// added the fixed64 HLC stamp — see tcp.go frameVersion):
//
//	uvarint  message type ID
//	string   TxID
//	uvarint  From
//	uvarint  To
//	string   Path
//	fixed64  HLC stamp (sender's hybrid logical clock at send time)
//	bytes    message payload (length-prefixed MarshalWire output)
//
// appendEnvelope appends e to b. scratch is a caller-owned buffer reused
// for the payload (its extended form is returned for the next call); with
// warm buffers the append allocates nothing.
func appendEnvelope(b []byte, e *Envelope, scratch []byte) (out, scr []byte, err error) {
	w, ok := e.Msg.(core.Wire)
	if !ok {
		return b, scratch, fmt.Errorf("live: message %T does not implement core.Wire", e.Msg)
	}
	scratch = w.MarshalWire(scratch[:0])
	b = wire.AppendUvarint(b, uint64(w.WireID()))
	b = wire.AppendString(b, e.TxID)
	b = wire.AppendUvarint(b, uint64(e.From))
	b = wire.AppendUvarint(b, uint64(e.To))
	b = wire.AppendString(b, e.Path)
	b = wire.AppendUint64(b, uint64(e.HLC))
	b = wire.AppendBytes(b, scratch)
	return b, scratch, nil
}

// decodeEnvelope decodes one envelope from d. On errUnknownWireID the
// decoder is positioned at the next envelope and the caller may continue.
// The payload is decoded on d itself, narrowed to the payload and then
// restored: a decoder of its own would escape to the heap through the
// message's UnmarshalWire, one allocation per envelope.
func decodeEnvelope(d *wire.Decoder) (Envelope, error) {
	id := d.Uvarint()
	e := Envelope{TxID: d.String()}
	e.From = core.ProcessID(d.Uvarint())
	e.To = core.ProcessID(d.Uvarint())
	e.Path = d.String()
	e.HLC = obs.HLC(d.Uint64())
	payload := d.View()
	if err := d.Err(); err != nil {
		return Envelope{}, err
	}
	if id > 1<<16-1 {
		return Envelope{}, wire.ErrCorrupt
	}
	proto, ok := wireLookup(uint16(id))
	if !ok {
		return Envelope{}, fmt.Errorf("%w %d", errUnknownWireID, id)
	}
	rest := *d
	d.Reset(payload)
	m, err := proto.UnmarshalWire(d)
	*d = rest
	if err != nil {
		return Envelope{}, fmt.Errorf("live: decode %T: %w", proto, err)
	}
	e.Msg = m
	return e, nil
}

// MarshalMessage encodes one registered message standalone — uvarint type
// ID followed by the MarshalWire payload — so a message can ride nested
// inside another message's bytes field (the combined stage+go leg carries
// the resource's footprint message this way).
func MarshalMessage(m core.Message) ([]byte, error) {
	w, ok := m.(core.Wire)
	if !ok {
		return nil, fmt.Errorf("live: message %T does not implement core.Wire", m)
	}
	b := wire.AppendUvarint(nil, uint64(w.WireID()))
	return w.MarshalWire(b), nil
}

// UnmarshalMessage decodes a MarshalMessage encoding back into its
// registered type. An unknown type ID is an error: nested messages travel
// inside an already-dispatched envelope, so there is no frame to skip to.
func UnmarshalMessage(b []byte) (core.Message, error) {
	d := nestedDecoders.Get().(*wire.Decoder)
	defer func() {
		d.Reset(nil)
		nestedDecoders.Put(d)
	}()
	d.Reset(b)
	proto, err := messageProto(d)
	if err != nil {
		return nil, err
	}
	m, err := proto.UnmarshalWire(d)
	if err != nil {
		return nil, fmt.Errorf("live: decode %T: %w", proto, err)
	}
	return m, nil
}

// MessageID returns the type ID of a MarshalMessage encoding, an error
// unless the ID is registered, without decoding the payload: it is what a
// process that only forwards the bytes can check. The payload is for the
// receiver to decode.
func MessageID(b []byte) (uint16, error) {
	var d wire.Decoder
	d.Reset(b)
	proto, err := messageProto(&d)
	if err != nil {
		return 0, err
	}
	return proto.WireID(), nil
}

// messageProto reads a MarshalMessage encoding's type ID off d and returns
// the prototype registered under it.
func messageProto(d *wire.Decoder) (core.Wire, error) {
	id := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if id > 1<<16-1 {
		return nil, wire.ErrCorrupt
	}
	proto, ok := wireLookup(uint16(id))
	if !ok {
		return nil, fmt.Errorf("%w %d", errUnknownWireID, id)
	}
	return proto, nil
}

// nestedDecoders are UnmarshalMessage's decoders. A decoder of the call's
// own would escape to the heap through the message's UnmarshalWire, one
// allocation per nested message; its callers decode on whichever transport
// goroutine delivered the envelope, and own no decoder those do not share.
var nestedDecoders = sync.Pool{New: func() any { return new(wire.Decoder) }}

// EncodedSize reports how many bytes e occupies inside a frame — the
// envelope's full wire footprint (header fields plus length-prefixed
// payload). Benchmarks use it to report bytes/envelope.
func EncodedSize(e Envelope) (int, error) {
	b, _, err := appendEnvelope(nil, &e, nil)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}
