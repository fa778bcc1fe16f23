package commit

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/wire"
)

// The control messages a Peer and a Client exchange beside the protocol's
// own, each on a reserved envelope path (one with a leading NUL byte, which
// no protocol module path has).

// beginPath is the reserved envelope path announcing a transaction to peers
// that have not started an instance for it yet.
const beginPath = "\x00begin"

// beginMsg tells a peer to Prepare and start its instance for Envelope.TxID.
// Fp, when set, is that peer's slice of the transaction's footprint (a
// live.MarshalMessage encoding, forwarded from the client's stageGoMsg): the
// peer hands it to HostedResource.Stage before it votes. Footprint and
// announcement travel in one envelope, so neither can overtake the other. A
// begin without a slice has an empty payload.
type beginMsg struct {
	Fp []byte
}

// Kind implements core.Message.
func (beginMsg) Kind() string { return "BEGIN" }

// WireID implements core.Wire (commit block, ID 1).
func (beginMsg) WireID() uint16 { return 1 }

// MarshalWire implements core.Wire.
func (m beginMsg) MarshalWire(b []byte) []byte {
	if len(m.Fp) == 0 {
		return b
	}
	return wire.AppendBytes(b, m.Fp)
}

// UnmarshalWire implements core.Wire.
func (beginMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	if d.Remaining() == 0 {
		return beginMsg{}, d.Err()
	}
	return beginMsg{Fp: d.Bytes()}, d.Err()
}

// outcomePath carries a retired peer's decision, as a decideMsg, to a
// straggler still running the protocol: a decision to adopt (see
// Peer.deliver). It is the only path a decideMsg travels.
const outcomePath = "\x00outcome"

// decideMsg announces that From decided V for Envelope.TxID.
type decideMsg struct {
	V core.Value
}

// Kind implements core.Message.
func (decideMsg) Kind() string { return "DECIDE" }

// WireID implements core.Wire (commit block, ID 2).
func (decideMsg) WireID() uint16 { return 2 }

// MarshalWire implements core.Wire.
func (m decideMsg) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }

// UnmarshalWire implements core.Wire.
func (decideMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return decideMsg{V: core.Value(d.Uvarint())}, d.Err()
}

// The client-facing paths: a commit.Client (not itself a protocol
// participant) speaks to peers over these reserved paths to start a commit,
// with or without a footprint, read outside transactions, and learn
// outcomes. See client.go for the driving side.
const (
	stageGoPath    = "\x00stagego"    // stageGoMsg: run the commit; any footprint rides along
	resultPath     = "\x00result"     // resultMsg: the coordinator's local decision
	queryPath      = "\x00query"      // payload is the resource's read request, or a Hop passed on
	queryReplyPath = "\x00queryreply" // payload is the resource's read reply
)

// resultMsg reports the coordinator's local decision for Envelope.TxID back
// to the client; Err != "" reports an infrastructure failure instead.
type resultMsg struct {
	V   core.Value
	Err string
}

// Kind implements core.Message.
func (resultMsg) Kind() string { return "RESULT" }

// WireID implements core.Wire (commit block, ID 6).
func (resultMsg) WireID() uint16 { return 6 }

// MarshalWire implements core.Wire.
func (m resultMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.V))
	return wire.AppendString(b, m.Err)
}

// UnmarshalWire implements core.Wire.
func (resultMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return resultMsg{V: core.Value(d.Uvarint()), Err: d.String()}, d.Err()
}

// stageGoMsg asks the receiving peer to coordinate the commit of
// Envelope.TxID and reply with resultMsg; it is the only message that starts
// a client's commit. It carries the transaction's whole footprint: Fp is the
// coordinator's own slice and Others the slices of the other involved peers,
// which the coordinator forwards on its begin to each (beginMsg.Fp): a
// footprint riding *inside* the message that announces the transaction
// cannot be overtaken by it, so no stage round trip and no ack barrier is
// paid. Each slice is a live.MarshalMessage encoding of the resource's
// footprint message; an empty Fp means the coordinator hosts no slice of
// this transaction, and the empty message (one byte on the wire) starts a
// commit whose resources need no footprint.
type stageGoMsg struct {
	Fp     []byte
	Others []peerSlice
}

// peerSlice is one other peer's slice inside a stageGoMsg.
type peerSlice struct {
	Peer core.ProcessID
	Fp   []byte
}

// Kind implements core.Message.
func (stageGoMsg) Kind() string { return "STAGEGO" }

// WireID implements core.Wire. The commit block (1..7) has no free ID, so
// this takes 83, adjacent to the kv client-path block (80..82) it serves.
func (stageGoMsg) WireID() uint16 { return 83 }

// MarshalWire implements core.Wire. Without Others the encoding ends after
// Fp, which is also what a sender predating Others writes.
func (m stageGoMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendBytes(b, m.Fp)
	if len(m.Others) == 0 {
		return b
	}
	b = wire.AppendUvarint(b, uint64(len(m.Others)))
	for _, o := range m.Others {
		b = wire.AppendUvarint(b, uint64(o.Peer))
		b = wire.AppendBytes(b, o.Fp)
	}
	return b
}

// UnmarshalWire implements core.Wire. The count of Others is a client's
// claim: entries are appended as they decode, never allocated up front.
func (stageGoMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	m := stageGoMsg{Fp: d.Bytes()}
	if d.Remaining() > 0 {
		for n := d.Len(); n > 0 && d.Err() == nil; n-- {
			m.Others = append(m.Others, peerSlice{Peer: core.ProcessID(d.Uvarint()), Fp: d.Bytes()})
		}
	}
	return m, d.Err()
}

func init() {
	live.RegisterWire(beginMsg{})
	live.RegisterWire(decideMsg{})
	live.RegisterWire(stageGoMsg{})
	live.RegisterWire(resultMsg{})
}
