// Wire messages for the distributed kv runtime: the footprint a client
// stages at a shard owner, and the relay, the one query a shard answers —
// a coalesced read, a read-only transaction's validation, and the first read
// that visits several far owners in one client round trip are all relays.
// IDs 80 and 86 live in the kv block of the live wire registry; 81, 82, 84,
// 85 and 87 are retired — see internal/live/wire.go for the ID map.
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

// readReplyMsg is what one hop of a relay read: value, presence and version
// per key of the hop, in its key order (parallel slices). It is no message of
// its own: it travels only as relayHop.Got.
type readReplyMsg struct {
	Vals []string
	Oks  []bool
	Vers []uint64
}

// relayMsg is the one kv query: it visits the owners in Hops in turn and
// comes back the same way (Shard.relay). Each hop reads its keys on the way
// out, once no write intent sits on them; the last hop's read counts as its
// validation; on the way back each earlier hop validates what it read, and
// the first hop hands the whole message to Client. Every hop is a Query answer
// that names the next process (commit.Hop), so no peer keeps state for it but
// a hop that waits out an intent, on the key's waiter list.
// A one-hop relay is a plain read, and one sent already on its way back
// (Back, with the versions read in Got.Vers) is a plain validation.
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
// owner's validation, or the validation on the way back said yes.
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
		b = wire.AppendUvarint(b, uint64(len(h.Keys)))
		for _, k := range h.Keys {
			b = wire.AppendString(b, k)
		}
		b = wire.AppendUvarint(b, uint64(len(h.Got.Vals)))
		for i := range h.Got.Vals {
			b = wire.AppendString(b, h.Got.Vals[i])
			b = wire.AppendBool(b, h.Got.Oks[i])
			b = wire.AppendUvarint(b, h.Got.Vers[i])
		}
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
		h := relayHop{Peer: core.ProcessID(d.Uvarint())}
		if nk := d.Len(); nk > 0 {
			h.Keys = make([]string, nk)
			for i := range h.Keys {
				h.Keys[i] = d.String()
			}
		}
		if ng := d.Len(); ng > 0 {
			h.Got = readReplyMsg{Vals: make([]string, ng), Oks: make([]bool, ng), Vers: make([]uint64, ng)}
			for i := 0; i < ng; i++ {
				h.Got.Vals[i], h.Got.Oks[i], h.Got.Vers[i] = d.String(), d.Bool(), d.Uvarint()
			}
		}
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

// validationHops groups a read set by owning shard index among n, each group
// the hop of a validation relay: its owner, its keys and, in Got.Vers, the
// versions read, with Got.Vals and Got.Oks zero to the same length (Got is
// encoded as one triple per value).
func validationHops(reads map[string]uint64, n int) map[int]relayHop {
	hops := make(map[int]relayHop)
	for key, ver := range reads {
		i := shardIndex(key, n)
		h := hops[i]
		h.Peer = core.ProcessID(i + 1)
		h.Keys = append(h.Keys, key)
		h.Got.Vals = append(h.Got.Vals, "")
		h.Got.Oks = append(h.Got.Oks, false)
		h.Got.Vers = append(h.Got.Vers, ver)
		hops[i] = h
	}
	return hops
}
