package commit

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/protocols"
	"atomiccommit/internal/wire"
)

// fillValue populates v with deterministic non-zero data: positive ints
// (several fields — ProcessID, paxoscommit.Inst, core.Value — ride unsigned
// varints), true bools, short strings, and 3-element slices filled
// recursively. Explicit cases below cover the negative (zigzag) ranges.
func fillValue(v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(seed%17 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(seed%7 + 1))
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < 3; i++ {
			fillValue(s.Index(i), seed+3*i+1)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), seed+i)
		}
	default:
		panic(fmt.Sprintf("fillValue: unhandled kind %v", v.Kind()))
	}
}

// roundTrip marshals m and decodes it back through its own prototype.
func roundTrip(t *testing.T, m core.Wire) core.Message {
	t.Helper()
	buf := m.MarshalWire(nil)
	var d wire.Decoder
	d.Reset(buf)
	out, err := m.UnmarshalWire(&d)
	if err != nil {
		t.Fatalf("%T: unmarshal: %v", m, err)
	}
	if d.Err() != nil {
		t.Fatalf("%T: decoder error: %v", m, d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%T: %d bytes left over after decode", m, d.Remaining())
	}
	return out
}

// TestWireRoundTripAllRegistered round-trips every message type in the live
// registry — zero value and a reflection-filled value — through its own
// MarshalWire/UnmarshalWire, comparing with deep equality. A new protocol
// message only has to be registered (commit.go's init) to be covered here.
func TestWireRoundTripAllRegistered(t *testing.T) {
	regs := live.RegisteredWires()
	if len(regs) < 40 {
		t.Fatalf("registry has only %d types; the protocol suite registers 45+", len(regs))
	}
	for _, proto := range regs {
		name := fmt.Sprintf("%T#%d", proto, proto.WireID())
		t.Run(name, func(t *testing.T) {
			// Zero value: decoders return nil slices for zero counts, so the
			// zero value must survive unchanged.
			if out := roundTrip(t, proto); !reflect.DeepEqual(out, proto) {
				t.Fatalf("zero value diverged:\n got %#v\nwant %#v", out, proto)
			}
			// Filled value: every field non-zero.
			fv := reflect.New(reflect.TypeOf(proto)).Elem()
			fillValue(fv, int(proto.WireID()))
			in := fv.Interface().(core.Wire)
			if out := roundTrip(t, in); !reflect.DeepEqual(out, in) {
				t.Fatalf("filled value diverged:\n got %#v\nwant %#v", out, in)
			}
		})
	}
}

// TestRegistryWiresRegistered: init registered every prototype the protocol
// registry and the consensus package list, under the type that lists it —
// the other half of internal/protocols' TestRegistrySanity.
func TestRegistryWiresRegistered(t *testing.T) {
	byID := make(map[uint16]core.Wire)
	for _, w := range live.RegisteredWires() {
		byID[w.WireID()] = w
	}
	wires := append([]core.Wire(nil), consensus.Wires...)
	for _, p := range protocols.All() {
		wires = append(wires, p.Wires...)
	}
	for _, w := range wires {
		if got, ok := byID[w.WireID()]; !ok || reflect.TypeOf(got) != reflect.TypeOf(w) {
			t.Errorf("%T (ID %d): live registry has %T", w, w.WireID(), got)
		}
	}
}

// TestCommitWireBlock: this package registers exactly the IDs it has shipped
// and still sends — 1, 2 and 6 of its block, and 83 — the same way
// internal/protocols' TestRegistrySanity pins the protocols'. 3, 4, 5 and 7,
// once the client's hello, the stage ack, the bare go (a bare commit starts
// on an empty stage+go) and the unstage, are retired: a
// type registered under one of them again would decode what an old sender
// meant by it as something else.
func TestCommitWireBlock(t *testing.T) {
	var got []uint16
	for _, w := range live.RegisteredWires() {
		if reflect.TypeOf(w).PkgPath() == "atomiccommit/commit" && w.WireID() < 240 { // >= 240: test types
			got = append(got, w.WireID())
		}
	}
	if want := []uint16{1, 2, 6, 83}; !reflect.DeepEqual(got, want) {
		t.Errorf("commit registers wire IDs %v, want exactly %v", got, want)
	}
}

// TestWireRoundTripNegativeBallots covers the zigzag-encoded fields at their
// sentinel values: AB/AccB/Promised are -1 when nothing was accepted.
func TestWireRoundTripNegativeBallots(t *testing.T) {
	for _, m := range []core.Wire{
		consensus.MsgPromise{B: 3, AB: -1, AV: core.Abort},
		consensus.MsgNack{B: 7, Promised: -1},
	} {
		if out := roundTrip(t, m); !reflect.DeepEqual(out, m) {
			t.Fatalf("%T diverged: got %#v want %#v", m, out, m)
		}
	}
}

// decodeAs decodes raw through proto's UnmarshalWire.
func decodeAs(proto core.Wire, raw []byte) (core.Message, error) {
	var d wire.Decoder
	d.Reset(raw)
	return proto.UnmarshalWire(&d)
}

// cutShort reports whether err is how the codec says "the input ends early"
// (a length prefix pointing past the end reads as ErrCorrupt).
func cutShort(err error) bool {
	return errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrCorrupt)
}

// TestBeginMsgWire: a begin without a slice is the empty payload it always
// was, so it decodes what a peer predating slices sends and vice versa; a
// slice round-trips; and no cut of a sliced begin decodes as something else.
func TestBeginMsgWire(t *testing.T) {
	if b := (beginMsg{}).MarshalWire(nil); len(b) != 0 {
		t.Fatalf("a bare begin encodes to %d bytes, want 0", len(b))
	}
	if n := testing.AllocsPerRun(100, func() {
		var m core.Message = beginMsg{}
		_ = m.(core.Wire).MarshalWire(nil)
	}); n != 0 {
		t.Fatalf("building and encoding a bare begin allocates %v times, want 0", n)
	}
	full := beginMsg{Fp: []byte("a footprint slice")}.MarshalWire(nil)
	cases := []struct {
		name string
		raw  []byte
		want core.Message
	}{
		{"bare, as before slices existed", nil, beginMsg{}},
		{"with a slice", full, beginMsg{Fp: []byte("a footprint slice")}},
	}
	for _, tc := range cases {
		got, err := decodeAs(beginMsg{}, tc.raw)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %#v, %v; want %#v", tc.name, got, err, tc.want)
		}
	}
	for cut := 1; cut < len(full); cut++ {
		if got, err := decodeAs(beginMsg{}, full[:cut]); !cutShort(err) {
			t.Errorf("cut at %d of %d: decoded %#v, %v; want a truncation error", cut, len(full), got, err)
		}
	}
}

// TestStageGoMsgWire: without Others the encoding is the one a client
// predating them writes, and decodes as before; with them it round-trips;
// a cut anywhere but on that old boundary is a truncation error.
func TestStageGoMsgWire(t *testing.T) {
	fp := []byte("coordinator slice")
	old := wire.AppendBytes(nil, fp) // the parent commit's whole stageGoMsg
	if b := (stageGoMsg{Fp: fp}).MarshalWire(nil); !reflect.DeepEqual(b, old) {
		t.Fatalf("a stage+go without others encodes to %x, want the old form %x", b, old)
	}
	msg := stageGoMsg{Fp: fp, Others: []peerSlice{{Peer: 2, Fp: []byte("two")}, {Peer: 4, Fp: []byte("four")}}}
	full := msg.MarshalWire(nil)
	cases := []struct {
		name string
		raw  []byte
		want core.Message
	}{
		{"old form", old, stageGoMsg{Fp: fp}},
		{"old form, no footprint", wire.AppendBytes(nil, nil), stageGoMsg{}},
		{"with others", full, msg},
	}
	for _, tc := range cases {
		got, err := decodeAs(stageGoMsg{}, tc.raw)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %#v, %v; want %#v", tc.name, got, err, tc.want)
		}
	}
	for cut := 0; cut < len(full); cut++ {
		got, err := decodeAs(stageGoMsg{}, full[:cut])
		if cut == len(old) {
			if err != nil || !reflect.DeepEqual(got, stageGoMsg{Fp: fp}) {
				t.Errorf("cut on the old boundary: decoded %#v, %v; want the old form", got, err)
			}
		} else if !cutShort(err) {
			t.Errorf("cut at %d of %d: decoded %#v, %v; want a truncation error", cut, len(full), got, err)
		}
	}

	// The count is the sender's claim and the entries behind it may be junk:
	// decoding pays for what decodes, not for the claim (1<<20 entries of 32
	// bytes here).
	const claim = 1 << 20
	junk := wire.AppendUvarint(wire.AppendBytes(nil, fp), claim)
	for i := 0; i < claim; i++ {
		junk = append(junk, 0xff)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := decodeAs(stageGoMsg{}, junk)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("%d junk entries decoded: %d others", claim, len(got.(stageGoMsg).Others))
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > claim {
		t.Errorf("refusing a claim of %d entries allocated %d bytes", claim, spent)
	}
}

// crossRuntimeVotes is the scripted vote table: participant j (1-based) votes
// no on transaction i iff (i*7+j)%5 == 0 — a mix of unanimous-yes and
// aborting transactions.
func crossRuntimeVote(i, j int) bool { return (i*7+j)%5 != 0 }

func crossRuntimeExpected(i, n int) bool {
	for j := 1; j <= n; j++ {
		if !crossRuntimeVote(i, j) {
			return false
		}
	}
	return true
}

// TestCrossRuntimeEquivalence runs the same scripted transactions over the
// in-memory mesh (Cluster) and over real TCP (Peers) and asserts both
// runtimes reach the same decisions. Both run the one Peer lifecycle, so
// what this still compares is the transports: the codec and framing
// preserve protocol behavior.
func TestCrossRuntimeEquivalence(t *testing.T) {
	const n, txns = 4, 8
	for _, protocol := range []Protocol{INBAC, TwoPC} {
		t.Run(string(protocol), func(t *testing.T) {
			opts := Options{Protocol: protocol, F: 1, Timeout: 60 * time.Millisecond}
			parse := func(txID string) int {
				var i int
				fmt.Sscanf(txID, "eq-%d", &i)
				return i
			}

			resources := make([]Resource, n)
			for j := 1; j <= n; j++ {
				j := j
				resources[j-1] = ResourceFunc{PrepareFn: func(txID string) bool {
					return crossRuntimeVote(parse(txID), j)
				}}
			}

			// Mesh runtime.
			meshDecisions := make([]bool, txns)
			{
				cl, err := NewCluster(resources, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				for i := 0; i < txns; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
					ok, err := cl.Commit(ctx, fmt.Sprintf("eq-%d", i))
					cancel()
					if err != nil {
						t.Fatalf("mesh txn %d: %v", i, err)
					}
					meshDecisions[i] = ok
				}
			}

			// TCP runtime: one Peer per participant on loopback.
			tcpDecisions := make([]bool, txns)
			{
				peers := startPeers(t, resources, opts)
				for i := 0; i < txns; i++ {
					txID := fmt.Sprintf("eq-%d", i)
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
					var wg sync.WaitGroup
					results := make([]bool, n)
					errs := make([]error, n)
					for j := 2; j <= n; j++ {
						wg.Add(1)
						go func(j int) {
							defer wg.Done()
							results[j-1], errs[j-1] = peers[j-1].Wait(ctx, txID)
						}(j)
					}
					results[0], errs[0] = peers[0].Commit(ctx, txID)
					wg.Wait()
					cancel()
					for j := 1; j <= n; j++ {
						if errs[j-1] != nil {
							t.Fatalf("tcp txn %d peer %d: %v", i, j, errs[j-1])
						}
						if results[j-1] != results[0] {
							t.Fatalf("tcp txn %d: peer %d decided %v, peer 1 decided %v",
								i, j, results[j-1], results[0])
						}
					}
					tcpDecisions[i] = results[0]
				}
			}

			for i := 0; i < txns; i++ {
				want := crossRuntimeExpected(i, n)
				if meshDecisions[i] != want || tcpDecisions[i] != want {
					t.Fatalf("txn %d: mesh=%v tcp=%v, votes say %v",
						i, meshDecisions[i], tcpDecisions[i], want)
				}
			}
		})
	}
}
