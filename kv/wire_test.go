package kv

import (
	"bytes"
	"reflect"
	"testing"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
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

// TestReadWireRoundTrip: a coalesced read — a one-hop relay on its way
// out — and the answer that brings its values back round-trip, empty keys,
// absent values and versions above 32 bits included.
func TestReadWireRoundTrip(t *testing.T) {
	t.Parallel()
	keys := []string{"x", "", "acct-7"}
	for _, m := range []relayMsg{
		{N: 2, Client: 3, Hops: []relayHop{{Peer: 2, Keys: keys}}},
		{N: 2, Client: 3, At: -1, Back: true, Hops: []relayHop{{Peer: 2, Keys: keys, Got: readReplyMsg{
			Vals: []string{"10", "", "z"},
			Oks:  []bool{true, false, true},
			Vers: []uint64{7, 0, 1 << 40},
		}}}},
	} {
		var d wire.Decoder
		d.Reset(m.MarshalWire(nil))
		decoded, err := relayMsg{}.UnmarshalWire(&d)
		if err != nil || !reflect.DeepEqual(decoded, m) {
			t.Fatalf("read round trip of %#v: %#v, %v", m, decoded, err)
		}
	}
}

// TestRelayWireRoundTrip: a relay round-trips on its way out, on its way
// back and headed to the client, and every cut of its encoding errors.
func TestRelayWireRoundTrip(t *testing.T) {
	t.Parallel()
	got := readReplyMsg{Vals: []string{"10", ""}, Oks: []bool{true, false}, Vers: []uint64{7, 0}}
	for _, m := range []relayMsg{
		{N: 4, Client: 5, Hops: []relayHop{{Peer: 2, Keys: []string{"x", "w"}}, {Peer: 4, Keys: []string{"y"}}}},
		{N: 4, Client: 5, At: 0, Back: true, Hops: []relayHop{{Peer: 2, Keys: []string{"x", "w"}, Got: got}, {Peer: 4, Keys: []string{"y"}, Got: readReplyMsg{Vals: []string{"v"}, Oks: []bool{true}, Vers: []uint64{1 << 40}}, OK: true}}},
		{N: 2, Client: 3, At: -1, Back: true, Hops: []relayHop{{Peer: 1, Keys: []string{"x", "w"}, Got: got, OK: true}}},
	} {
		full := m.MarshalWire(nil)
		var d wire.Decoder
		d.Reset(full)
		decoded, err := relayMsg{}.UnmarshalWire(&d)
		if err != nil || !reflect.DeepEqual(decoded, m) {
			t.Fatalf("round trip of %#v: %#v, %v", m, decoded, err)
		}
		for cut := 0; cut < len(full); cut++ {
			d.Reset(full[:cut])
			if _, err := (relayMsg{}).UnmarshalWire(&d); err == nil {
				t.Fatalf("%#v truncated at %d of %d decoded without error", m, cut, len(full))
			}
		}
	}
}

// TestRelayRouteBounds: the relay decoder holds a route to at most N hops,
// peers of 1..N in ascending order, headed to a client above them — so a
// relay visits a peer at most twice, and a client cannot bounce it among
// the peers — and a shard answers a relay not at it with an error, which
// the peer turns into silence.
func TestRelayRouteBounds(t *testing.T) {
	t.Parallel()
	hop := func(peers ...core.ProcessID) []relayHop {
		hs := make([]relayHop, len(peers))
		for i, p := range peers {
			hs[i] = relayHop{Peer: p, Keys: []string{"k"}}
		}
		return hs
	}
	for _, tc := range []struct {
		name string
		m    relayMsg
	}{
		{"more hops than peers", relayMsg{N: 2, Client: 3, Hops: hop(1, 2, 3)}},
		{"an owner twice", relayMsg{N: 3, Client: 4, Hops: hop(1, 2, 1)}},
		{"an owner twice in a row", relayMsg{N: 3, Client: 4, Hops: hop(2, 2)}},
		{"out of order", relayMsg{N: 3, Client: 4, Hops: hop(2, 1)}},
		{"peer 0", relayMsg{N: 2, Client: 3, Hops: hop(0, 1)}},
		{"peer above N", relayMsg{N: 2, Client: 3, Hops: hop(1, 3)}},
		{"a peer as the client", relayMsg{N: 2, Client: 2, Hops: hop(1)}},
		{"no hops", relayMsg{N: 2, Client: 3}},
		{"past the last hop", relayMsg{N: 2, Client: 3, At: 2, Hops: hop(1, 2)}},
		{"before the client", relayMsg{N: 2, Client: 3, At: -2, Back: true, Hops: hop(1, 2)}},
		{"to the client on the way out", relayMsg{N: 2, Client: 3, At: -1, Hops: hop(1, 2)}},
		{"a read of the wrong length", relayMsg{N: 2, Client: 3, Back: true, Hops: []relayHop{{Peer: 1, Keys: []string{"k"}, Got: readReplyMsg{Vals: []string{"a", "b"}, Oks: []bool{true, true}, Vers: []uint64{1, 1}}}}}},
	} {
		var d wire.Decoder
		d.Reset(tc.m.MarshalWire(nil))
		if m, err := (relayMsg{}).UnmarshalWire(&d); err == nil {
			t.Errorf("%s: decoded as %#v", tc.name, m)
		}
	}
	sh := NewShard(0)
	for _, m := range []relayMsg{
		{N: 2, Client: 3, At: 1, Hops: hop(1, 2)},
		{N: 2, Client: 3, At: -1, Back: true, Hops: hop(1)},
		{N: 2, Client: 3, Back: true, Hops: hop(1)}, // back, but never read
	} {
		if reply, err := sh.Query(m); err == nil {
			t.Errorf("shard P1 answered %#v with %#v", m, reply)
		}
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

// TestValidateWireRoundTrip: the validations a client sends — one-hop
// relays already on their way back, Got zero but for the versions read — and
// their answers round-trip, and every cut of their encoding errors.
func TestValidateWireRoundTrip(t *testing.T) {
	t.Parallel()
	reads := map[string]uint64{"x": 7, "": 0, "acct-7": 1 << 40, "y": 3}
	var msgs []relayMsg
	for _, h := range validationHops(reads, 2) {
		m := relayMsg{N: 2, Client: 3, Back: true, Hops: []relayHop{h}}
		answer := relayMsg{N: 2, Client: 3, At: -1, Back: true, Hops: []relayHop{h}}
		answer.Hops[0].OK = true
		msgs = append(msgs, m, answer)
	}
	if len(msgs) != 4 {
		t.Fatalf("%d reads grouped into %d validations, want one per owner of 2", len(reads), len(msgs)/2)
	}
	for _, m := range msgs {
		full := m.MarshalWire(nil)
		var d wire.Decoder
		d.Reset(full)
		decoded, err := relayMsg{}.UnmarshalWire(&d)
		if err != nil || !reflect.DeepEqual(decoded, m) {
			t.Fatalf("round trip of %#v: %#v, %v", m, decoded, err)
		}
		for cut := 0; cut < len(full); cut++ {
			d.Reset(full[:cut])
			if _, err := (relayMsg{}).UnmarshalWire(&d); err == nil {
				t.Fatalf("%#v truncated at %d of %d decoded without error", m, cut, len(full))
			}
		}
	}
}

// TestValidateLengthMismatch: a validation whose versions do not match its
// keys can only be hand-built. The shard must answer it with an error — which
// the peer turns into silence — never with a panic or a yes.
func TestValidateLengthMismatch(t *testing.T) {
	t.Parallel()
	sh := NewShard(0)
	for _, m := range []relayMsg{
		validation(sh, []string{"a", "b"}, []uint64{0}),
		validation(sh, []string{"a"}, nil),
		validation(sh, nil, []uint64{0}),
	} {
		if reply, err := sh.Query(m); err == nil {
			t.Fatalf("Query(%#v) = %#v, want an error", m, reply)
		}
	}
	// The well-formed one about a never-written key is a yes.
	reply, err := sh.Query(validation(sh, []string{"a"}, []uint64{0}))
	if r, ok := reply.(relayMsg); err != nil || !ok || r.Next() != 3 || !r.Hops[0].OK {
		t.Fatalf("Query = %#v, %v; want a yes headed to the client", reply, err)
	}
}

// TestKVWireBlock: this package registers exactly the IDs it still sends —
// 80, the footprint, and 86, the relay — the way commit's TestCommitWireBlock
// pins its own. 81, 82, 84, 85 and 87, once the read, two forms of its
// reply, the validation and its reply, are retired: a type registered under
// one of them again would decode what an old sender meant by it as something
// else.
func TestKVWireBlock(t *testing.T) {
	t.Parallel()
	var got []uint16
	for _, w := range live.RegisteredWires() {
		if reflect.TypeOf(w).PkgPath() == "atomiccommit/kv" {
			got = append(got, w.WireID())
		}
	}
	if want := []uint16{80, 86}; !reflect.DeepEqual(got, want) {
		t.Errorf("kv registers wire IDs %v, want exactly %v", got, want)
	}
	if reply, err := NewShard(0).Query(footprintMsg{}); err == nil {
		t.Errorf("a shard answered a query that is no relay with %#v", reply)
	}
}
