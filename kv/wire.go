// Wire messages for the distributed kv runtime: the footprint a remote
// client stages at a shard owner, the read request/reply pair behind
// transactional Gets, the validation request/reply pair that commits a
// read-only transaction, and the relay that reads several far owners in one
// client round trip. IDs live in the kv block (80..81, 84..87) of the live
// wire registry — see internal/live/wire.go for the ID map.
//
// Maps are encoded as sorted parallel slices so the same footprint always
// produces the same bytes (useful for tests and future dedup/digests).

package kv

import (
	"errors"
	"fmt"
	"sort"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/wire"
)

func init() {
	live.RegisterWire(footprintMsg{})
	live.RegisterWire(readMsg{})
	live.RegisterWire(readReplyMsg{})
	live.RegisterWire(validateMsg{})
	live.RegisterWire(validateReplyMsg{})
	live.RegisterWire(relayMsg{})
}

// footprintMsg carries one shard's slice of a transaction footprint from a
// remote client to the shard's owner: the read set with observed versions,
// and the buffered writes (value or tombstone per key). ReadKeys/ReadVers
// and WriteKeys/WriteVals/WriteDels are parallel slices.
type footprintMsg struct {
	ReadKeys  []string
	ReadVers  []uint64
	WriteKeys []string
	WriteVals []string
	WriteDels []bool
}

// Kind implements core.Message.
func (footprintMsg) Kind() string { return "KVFOOTPRINT" }

// WireID implements core.Wire.
func (footprintMsg) WireID() uint16 { return 80 }

// MarshalWire implements core.Wire.
func (m footprintMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.ReadKeys)))
	for i, k := range m.ReadKeys {
		b = wire.AppendString(b, k)
		b = wire.AppendUvarint(b, m.ReadVers[i])
	}
	b = wire.AppendUvarint(b, uint64(len(m.WriteKeys)))
	for i, k := range m.WriteKeys {
		b = wire.AppendString(b, k)
		b = wire.AppendString(b, m.WriteVals[i])
		b = wire.AppendBool(b, m.WriteDels[i])
	}
	return b
}

// UnmarshalWire implements core.Wire.
func (footprintMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	var m footprintMsg
	nr := d.Len()
	if nr > 0 {
		m.ReadKeys = make([]string, nr)
		m.ReadVers = make([]uint64, nr)
		for i := 0; i < nr; i++ {
			m.ReadKeys[i] = d.String()
			m.ReadVers[i] = d.Uvarint()
		}
	}
	nw := d.Len()
	if nw > 0 {
		m.WriteKeys = make([]string, nw)
		m.WriteVals = make([]string, nw)
		m.WriteDels = make([]bool, nw)
		for i := 0; i < nw; i++ {
			m.WriteKeys[i] = d.String()
			m.WriteVals[i] = d.String()
			m.WriteDels[i] = d.Bool()
		}
	}
	return m, d.Err()
}

// footprintToMsg flattens a footprint's maps into sorted parallel slices.
func footprintToMsg(f *footprint) footprintMsg {
	m := footprintMsg{}
	if n := len(f.reads); n > 0 {
		m.ReadKeys = make([]string, 0, n)
		for k := range f.reads {
			m.ReadKeys = append(m.ReadKeys, k)
		}
		sort.Strings(m.ReadKeys)
		m.ReadVers = make([]uint64, n)
		for i, k := range m.ReadKeys {
			m.ReadVers[i] = f.reads[k]
		}
	}
	if n := len(f.writes); n > 0 {
		m.WriteKeys = make([]string, 0, n)
		for k := range f.writes {
			m.WriteKeys = append(m.WriteKeys, k)
		}
		sort.Strings(m.WriteKeys)
		m.WriteVals = make([]string, n)
		m.WriteDels = make([]bool, n)
		for i, k := range m.WriteKeys {
			w := f.writes[k]
			m.WriteVals[i] = w.value
			m.WriteDels[i] = w.tombstone
		}
	}
	return m
}

// sets rebuilds the shard-side read/write maps, validating that the
// parallel slices agree (they can disagree only on a hand-built message;
// the decoder produces matching lengths by construction).
func (m footprintMsg) sets() (map[string]uint64, map[string]write, error) {
	if len(m.ReadKeys) != len(m.ReadVers) ||
		len(m.WriteKeys) != len(m.WriteVals) || len(m.WriteKeys) != len(m.WriteDels) {
		return nil, nil, fmt.Errorf("malformed footprint: mismatched field lengths")
	}
	reads := make(map[string]uint64, len(m.ReadKeys))
	for i, k := range m.ReadKeys {
		reads[k] = m.ReadVers[i]
	}
	writes := make(map[string]write, len(m.WriteKeys))
	for i, k := range m.WriteKeys {
		writes[k] = write{value: m.WriteVals[i], tombstone: m.WriteDels[i]}
	}
	return reads, writes, nil
}

// readMsg asks a shard owner for the latest committed state of Keys.
type readMsg struct {
	Keys []string
}

// Kind implements core.Message.
func (readMsg) Kind() string { return "KVREAD" }

// WireID implements core.Wire.
func (readMsg) WireID() uint16 { return 81 }

// MarshalWire implements core.Wire.
func (m readMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		b = wire.AppendString(b, k)
	}
	return b
}

// UnmarshalWire implements core.Wire.
func (readMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	var m readMsg
	if n := d.Len(); n > 0 {
		m.Keys = make([]string, n)
		for i := range m.Keys {
			m.Keys[i] = d.String()
		}
	}
	return m, d.Err()
}

// readReplyMsg answers a readMsg: value, presence and version per requested
// key, in request order (parallel slices). It took a fresh wire ID when the
// per-key intent bits it carried under ID 82 went: a relay's verdict says
// whether a read was also a validation now.
type readReplyMsg struct {
	Vals []string
	Oks  []bool
	Vers []uint64
}

// Kind implements core.Message.
func (readReplyMsg) Kind() string { return "KVREADREPLY" }

// WireID implements core.Wire.
func (readReplyMsg) WireID() uint16 { return 87 }

// MarshalWire implements core.Wire.
func (m readReplyMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Vals)))
	for i := range m.Vals {
		b = wire.AppendString(b, m.Vals[i])
		b = wire.AppendBool(b, m.Oks[i])
		b = wire.AppendUvarint(b, m.Vers[i])
	}
	return b
}

// UnmarshalWire implements core.Wire.
func (readReplyMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	var m readReplyMsg
	if n := d.Len(); n > 0 {
		m.Vals = make([]string, n)
		m.Oks = make([]bool, n)
		m.Vers = make([]uint64, n)
		for i := 0; i < n; i++ {
			m.Vals[i] = d.String()
			m.Oks[i] = d.Bool()
			m.Vers[i] = d.Uvarint()
		}
	}
	return m, d.Err()
}

// relayMsg is one read that visits the owners in Hops in turn and comes
// back the same way (Shard.relay): each hop reads its keys on the way out;
// the last hop's read counts as its validation when no write intent sits on
// its keys; on the way back each earlier hop validates what it read, and the
// first hop hands the whole message to Client. Every hop is a Query answer
// that names the next process (commit.Hop), so no peer keeps state or waits.
//
// N is the deployment's peer count as the client knows it: peers are 1..N
// and clients above. The decoder holds a route to at most N hops, in
// ascending peer order — so no owner twice, checked in one pass — and a
// relay visits a peer at most twice: a client cannot bounce it among them.
type relayMsg struct {
	N      int
	Client core.ProcessID
	At     int  // the hop it is headed to; -1 once it is headed to Client
	Back   bool // on its way back: every hop has read
	Hops   []relayHop
}

// relayHop is one owner's part of a relay: its keys, what it read (Got,
// empty until it did) and its verdict — OK iff the read doubled as the
// owner's validation.
type relayHop struct {
	Peer core.ProcessID
	Keys []string
	Got  readReplyMsg
	OK   bool
}

// Kind implements core.Message.
func (relayMsg) Kind() string { return "KVRELAY" }

// WireID implements core.Wire.
func (relayMsg) WireID() uint16 { return 86 }

// Next implements commit.Hop.
func (m relayMsg) Next() core.ProcessID {
	switch {
	case m.At == -1:
		return m.Client
	case m.At >= 0 && m.At < len(m.Hops):
		return m.Hops[m.At].Peer
	}
	return 0
}

// MarshalWire implements core.Wire.
func (m relayMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.N))
	b = wire.AppendUvarint(b, uint64(m.Client))
	b = wire.AppendInt(b, m.At)
	b = wire.AppendBool(b, m.Back)
	b = wire.AppendUvarint(b, uint64(len(m.Hops)))
	for _, h := range m.Hops {
		b = wire.AppendUvarint(b, uint64(h.Peer))
		b = readMsg{Keys: h.Keys}.MarshalWire(b)
		b = h.Got.MarshalWire(b)
		b = wire.AppendBool(b, h.OK)
	}
	return b
}

// errRelayRoute reports a relay whose route or position the decoder refuses.
var errRelayRoute = errors.New("kv: malformed relay")

// UnmarshalWire implements core.Wire. The hop count is a client's claim:
// hops are appended as they decode, never allocated up front.
func (relayMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	m := relayMsg{N: int(d.Uvarint()), Client: core.ProcessID(d.Uvarint()), At: d.Int(), Back: d.Bool()}
	for n := d.Len(); n > 0 && d.Err() == nil; n-- {
		var h relayHop
		h.Peer = core.ProcessID(d.Uvarint())
		keys, _ := readMsg{}.UnmarshalWire(d)
		h.Keys = keys.(readMsg).Keys
		got, _ := readReplyMsg{}.UnmarshalWire(d)
		h.Got = got.(readReplyMsg)
		h.OK = d.Bool()
		if h.Peer < 1 || int(h.Peer) > m.N || len(m.Hops) > 0 && h.Peer <= m.Hops[len(m.Hops)-1].Peer ||
			len(h.Got.Vals) != 0 && len(h.Got.Vals) != len(h.Keys) {
			return nil, errRelayRoute
		}
		m.Hops = append(m.Hops, h)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(m.Hops) == 0 || int(m.Client) <= m.N || m.At < -1 || m.At >= len(m.Hops) || m.At == -1 && !m.Back {
		return nil, errRelayRoute
	}
	return m, nil
}

// validateMsg asks a shard owner whether a read-only transaction's reads
// there still stand: Keys[i] was read at version Vers[i] (parallel slices,
// in no particular order). It names no transaction — nothing is staged.
type validateMsg struct {
	Keys []string
	Vers []uint64
}

// Kind implements core.Message.
func (validateMsg) Kind() string { return "KVVALIDATE" }

// WireID implements core.Wire.
func (validateMsg) WireID() uint16 { return 84 }

// MarshalWire implements core.Wire.
func (m validateMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Keys)))
	for i, k := range m.Keys {
		b = wire.AppendString(b, k)
		b = wire.AppendUvarint(b, m.Vers[i])
	}
	return b
}

// UnmarshalWire implements core.Wire.
func (validateMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	var m validateMsg
	if n := d.Len(); n > 0 {
		m.Keys = make([]string, n)
		m.Vers = make([]uint64, n)
		for i := 0; i < n; i++ {
			m.Keys[i] = d.String()
			m.Vers[i] = d.Uvarint()
		}
	}
	return m, d.Err()
}

// validateMsgs splits a read set into one validateMsg per owning shard,
// keyed by shard index among n.
func validateMsgs(reads map[string]uint64, n int) map[int]validateMsg {
	msgs := make(map[int]validateMsg)
	for key, ver := range reads {
		i := shardIndex(key, n)
		m := msgs[i]
		m.Keys = append(m.Keys, key)
		m.Vers = append(m.Vers, ver)
		msgs[i] = m
	}
	return msgs
}

// validateReplyMsg answers a validateMsg: OK iff every key still has the
// version that was read and no write intent is on it (Shard.validate).
type validateReplyMsg struct {
	OK bool
}

// Kind implements core.Message.
func (validateReplyMsg) Kind() string { return "KVVALIDATEREPLY" }

// WireID implements core.Wire.
func (validateReplyMsg) WireID() uint16 { return 85 }

// MarshalWire implements core.Wire.
func (m validateReplyMsg) MarshalWire(b []byte) []byte { return wire.AppendBool(b, m.OK) }

// UnmarshalWire implements core.Wire.
func (validateReplyMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	m := validateReplyMsg{OK: d.Bool()}
	return m, d.Err()
}
