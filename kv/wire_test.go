package kv

import (
	"bytes"
	"reflect"
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

func TestFootprintWireRoundTrip(t *testing.T) {
	t.Parallel()
	f := &footprint{
		reads:  map[string]uint64{"alpha": 3, "beta": 0, "gamma": 41},
		writes: map[string]write{"beta": {value: "v2"}, "delta": {tombstone: true}},
	}
	m := footprintToMsg(f)
	b := m.MarshalWire(nil)

	var d wire.Decoder
	d.Reset(b)
	decoded, err := footprintMsg{}.UnmarshalWire(&d)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(footprintMsg)
	if !ok {
		t.Fatalf("decoded %T", decoded)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", got, m)
	}

	// Map iteration must not leak into the encoding: same footprint, same
	// bytes.
	if b2 := footprintToMsg(f).MarshalWire(nil); !bytes.Equal(b, b2) {
		t.Fatal("footprint encoding is not deterministic")
	}

	reads, writes, err := got.sets()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reads, f.reads) || !reflect.DeepEqual(writes, f.writes) {
		t.Fatalf("sets() diverged:\nreads  %#v\nwrites %#v", reads, writes)
	}
}

func TestFootprintSetsMismatch(t *testing.T) {
	t.Parallel()
	m := footprintMsg{ReadKeys: []string{"a", "b"}, ReadVers: []uint64{1}}
	if _, _, err := m.sets(); err == nil {
		t.Fatal("mismatched parallel slices must error")
	}
	m = footprintMsg{WriteKeys: []string{"a"}, WriteVals: []string{"v"}, WriteDels: nil}
	if _, _, err := m.sets(); err == nil {
		t.Fatal("mismatched write slices must error")
	}
}

func TestReadWireRoundTrip(t *testing.T) {
	t.Parallel()
	rq := readMsg{Keys: []string{"x", "", "acct-7"}}
	var d wire.Decoder
	d.Reset(rq.MarshalWire(nil))
	decoded, err := readMsg{}.UnmarshalWire(&d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, rq) {
		t.Fatalf("readMsg round trip: %#v", decoded)
	}

	reply := readReplyMsg{
		Vals: []string{"10", "", "z"},
		Oks:  []bool{true, false, true},
		Vers: []uint64{7, 0, 1 << 40},
		Held: []bool{false, true, false},
	}
	d.Reset(reply.MarshalWire(nil))
	decoded, err = readReplyMsg{}.UnmarshalWire(&d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, reply) {
		t.Fatalf("readReplyMsg round trip: %#v", decoded)
	}
}

// TestReadReplyIntentWire: a read reply's intent bits round-trip, every cut
// of its encoding errors but one, and that one — the per-key triples with no
// bits after them, which is how a shard that predates the bits answers —
// decodes as every key held, so no client takes it for a validation.
func TestReadReplyIntentWire(t *testing.T) {
	t.Parallel()
	reply := readReplyMsg{
		Vals: []string{"10", "", "z"},
		Oks:  []bool{true, false, true},
		Vers: []uint64{7, 0, 1 << 40},
		Held: []bool{false, true, false},
	}
	old := wire.AppendUvarint(nil, uint64(len(reply.Vals)))
	for i := range reply.Vals {
		old = wire.AppendString(old, reply.Vals[i])
		old = wire.AppendBool(old, reply.Oks[i])
		old = wire.AppendUvarint(old, reply.Vers[i])
	}
	full := reply.MarshalWire(nil)
	if !bytes.HasPrefix(full, old) {
		t.Fatal("the intent bits are not appended to the old encoding")
	}

	var d wire.Decoder
	for _, m := range []readReplyMsg{reply, {}} {
		d.Reset(m.MarshalWire(nil))
		if decoded, err := (readReplyMsg{}).UnmarshalWire(&d); err != nil || !reflect.DeepEqual(decoded, m) {
			t.Fatalf("round trip of %#v: %#v, %v", m, decoded, err)
		}
	}
	for cut := 0; cut < len(full); cut++ {
		if cut == len(old) {
			continue
		}
		d.Reset(full[:cut])
		if _, err := (readReplyMsg{}).UnmarshalWire(&d); err == nil {
			t.Fatalf("truncated at %d of %d decoded without error", cut, len(full))
		}
	}
	d.Reset(old)
	decoded, err := readReplyMsg{}.UnmarshalWire(&d)
	if err != nil {
		t.Fatal(err)
	}
	want := reply
	want.Held = []bool{true, true, true}
	if !reflect.DeepEqual(decoded, want) {
		t.Fatalf("old encoding decoded as %#v, want every key held", decoded)
	}
}

func TestWireTruncated(t *testing.T) {
	t.Parallel()
	full := footprintToMsg(&footprint{
		reads:  map[string]uint64{"k": 9},
		writes: map[string]write{"k": {value: "v"}},
	}).MarshalWire(nil)
	for cut := 0; cut < len(full); cut++ {
		var d wire.Decoder
		d.Reset(full[:cut])
		if _, err := (footprintMsg{}).UnmarshalWire(&d); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

func TestValidateWireRoundTrip(t *testing.T) {
	t.Parallel()
	for _, m := range []core.Wire{
		validateMsg{Keys: []string{"x", "", "acct-7"}, Vers: []uint64{7, 0, 1 << 40}},
		validateMsg{},
		validateReplyMsg{OK: true},
		validateReplyMsg{},
	} {
		full := m.MarshalWire(nil)
		var d wire.Decoder
		d.Reset(full)
		decoded, err := m.UnmarshalWire(&d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded, m) {
			t.Fatalf("%T round trip: %#v", m, decoded)
		}
		for cut := 0; cut < len(full); cut++ {
			d.Reset(full[:cut])
			if _, err := m.UnmarshalWire(&d); err == nil {
				t.Fatalf("%T truncated at %d of %d decoded without error", m, cut, len(full))
			}
		}
	}
}

// TestValidateLengthMismatch: a validateMsg whose parallel slices disagree can
// only be hand-built. The shard must answer it with an error — which the peer
// turns into silence — never with a panic or a yes.
func TestValidateLengthMismatch(t *testing.T) {
	t.Parallel()
	sh := NewShard(0)
	for _, m := range []validateMsg{
		{Keys: []string{"a", "b"}, Vers: []uint64{0}},
		{Keys: []string{"a"}},
		{Vers: []uint64{0}},
	} {
		if reply, err := sh.Query(m); err == nil {
			t.Fatalf("Query(%#v) = %#v, want an error", m, reply)
		}
	}
	// The well-formed one about a never-written key is a yes.
	reply, err := sh.Query(validateMsg{Keys: []string{"a"}, Vers: []uint64{0}})
	if err != nil || reply != (validateReplyMsg{OK: true}) {
		t.Fatalf("Query = %#v, %v; want a yes", reply, err)
	}
}
