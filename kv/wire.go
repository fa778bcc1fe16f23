// Wire messages for the distributed kv runtime: the footprint a remote
// client stages at a shard owner, the read request/reply pair behind
// transactional Gets, and the validation request/reply pair that commits a
// read-only transaction. IDs live in the kv block (80..82, 84..85) of the
// live wire registry — see internal/live/wire.go for the ID map.
//
// Maps are encoded as sorted parallel slices so the same footprint always
// produces the same bytes (useful for tests and future dedup/digests).

package kv

import (
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

// readReplyMsg answers a readMsg: value, presence, version and whether a
// write intent sat on the key, per requested key, in request order (parallel
// slices).
type readReplyMsg struct {
	Vals []string
	Oks  []bool
	Vers []uint64
	Held []bool
}

// Kind implements core.Message.
func (readReplyMsg) Kind() string { return "KVREADREPLY" }

// WireID implements core.Wire.
func (readReplyMsg) WireID() uint16 { return 82 }

// MarshalWire implements core.Wire: the per-key triples, then the intent
// bits.
func (m readReplyMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Vals)))
	for i := range m.Vals {
		b = wire.AppendString(b, m.Vals[i])
		b = wire.AppendBool(b, m.Oks[i])
		b = wire.AppendUvarint(b, m.Vers[i])
	}
	for _, h := range m.Held {
		b = wire.AppendBool(b, h)
	}
	return b
}

// UnmarshalWire implements core.Wire. An encoding that ends after the
// triples, from a shard that predates the intent bits, decodes as every key
// held: no client takes such a read for a validation.
func (readReplyMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	var m readReplyMsg
	if n := d.Len(); n > 0 {
		m.Vals = make([]string, n)
		m.Oks = make([]bool, n)
		m.Vers = make([]uint64, n)
		m.Held = make([]bool, n)
		for i := 0; i < n; i++ {
			m.Vals[i] = d.String()
			m.Oks[i] = d.Bool()
			m.Vers[i] = d.Uvarint()
		}
		old := d.Remaining() == 0
		for i := range m.Held {
			m.Held[i] = old || d.Bool()
		}
	}
	return m, d.Err()
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
