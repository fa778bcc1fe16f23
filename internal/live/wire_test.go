package live

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/wire"
)

// blobMsg exercises every field shape the codec supports in one message.
type blobMsg struct {
	U uint64
	I int
	S string
	B []byte
}

func (blobMsg) Kind() string   { return "BLOB" }
func (blobMsg) WireID() uint16 { return 241 }
func (m blobMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.U)
	b = wire.AppendInt(b, m.I)
	b = wire.AppendString(b, m.S)
	return wire.AppendBytes(b, m.B)
}

func (blobMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return blobMsg{U: d.Uvarint(), I: d.Int(), S: d.String(), B: d.Bytes()}, d.Err()
}

// strangerMsg is intentionally NOT registered: the decoder must skip its
// envelopes without dropping the rest of the frame.
type strangerMsg struct{}

func (strangerMsg) Kind() string                { return "STRANGER" }
func (strangerMsg) WireID() uint16              { return 245 }
func (strangerMsg) MarshalWire(b []byte) []byte { return b }
func (strangerMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return strangerMsg{}, d.Err()
}

func init() { RegisterWire(blobMsg{}) }

// FuzzWireRoundTrip drives arbitrary envelopes through the full envelope
// codec — the exact bytes the TCP transport frames and the mesh round-trips
// — and asserts identity.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add("tx-1", uint8(1), uint8(2), "iuc", uint64(7), int64(-3), "s", []byte{1, 2})
	f.Add("", uint8(0), uint8(255), "", uint64(0), int64(0), "", []byte(nil))
	f.Fuzz(func(t *testing.T, txID string, from, to uint8, path string, u uint64, i int64, s string, blob []byte) {
		in := Envelope{
			TxID: txID, From: core.ProcessID(from), To: core.ProcessID(to), Path: path,
			Msg: blobMsg{U: u, I: int(i), S: s, B: blob},
		}
		buf, _, err := appendEnvelope(nil, &in, nil)
		if err != nil {
			t.Fatal(err)
		}
		var d wire.Decoder
		d.Reset(buf)
		out, err := decodeEnvelope(&d)
		if err != nil {
			t.Fatal(err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("%d bytes left over", d.Remaining())
		}
		if out.TxID != in.TxID || out.From != in.From || out.To != in.To || out.Path != in.Path {
			t.Fatalf("envelope fields diverged: %+v vs %+v", out, in)
		}
		got := out.Msg.(blobMsg)
		want := in.Msg.(blobMsg)
		if got.U != want.U || got.I != want.I || got.S != want.S || !bytes.Equal(got.B, want.B) {
			t.Fatalf("message diverged: %+v vs %+v", got, want)
		}
	})
}

// FuzzDecodeEnvelope feeds raw bytes to the envelope decoder: corrupt input
// must error out cleanly, never panic and never over-allocate.
func FuzzDecodeEnvelope(f *testing.F) {
	seed, _, _ := appendEnvelope(nil, &Envelope{TxID: "t", From: 1, To: 2, Msg: blobMsg{U: 9}}, nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d wire.Decoder
		d.Reset(raw)
		for d.Remaining() > 0 {
			if _, err := decodeEnvelope(&d); err != nil && !errors.Is(err, errUnknownWireID) {
				return
			}
		}
	})
}

// TestUnknownWireIDIsSkipped: an envelope of an unregistered type must be
// skipped envelope-by-envelope (mixed-version peers), not poison the frame.
func TestUnknownWireIDIsSkipped(t *testing.T) {
	var buf []byte
	var err error
	buf, _, err = appendEnvelope(buf, &Envelope{TxID: "a", From: 1, To: 2, Msg: strangerMsg{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err = appendEnvelope(buf, &Envelope{TxID: "b", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var d wire.Decoder
	d.Reset(buf)
	if _, err := decodeEnvelope(&d); !errors.Is(err, errUnknownWireID) {
		t.Fatalf("want errUnknownWireID, got %v", err)
	}
	e, err := decodeEnvelope(&d)
	if err != nil {
		t.Fatalf("envelope after the unknown one must decode: %v", err)
	}
	if e.TxID != "b" || e.Msg.(echoMsg).V != core.Commit {
		t.Fatalf("bad surviving envelope: %+v", e)
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

// TestTCPSkipsUnknownTypeOnWire proves the skip end to end: a frame carrying
// an unknown-type envelope followed by a known one still delivers the known
// one through a real socket.
func TestTCPSkipsUnknownTypeOnWire(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	recv := make(chan Envelope, 2)
	t2.SetHandler(func(e Envelope) { recv <- e })
	if err := t1.Send(Envelope{TxID: "u", From: 1, To: 2, Msg: strangerMsg{}}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Send(Envelope{TxID: "k", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-recv:
		if e.TxID != "k" {
			t.Fatalf("delivered %q, want the known envelope %q", e.TxID, "k")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("known envelope never delivered")
	}
}

// TestSendUnencodableMessageErrors: a message that does not implement
// core.Wire is a programming error the transport must surface, not drop.
func TestSendUnencodableMessageErrors(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2.SetHandler(func(Envelope) {})
	if err := t1.Send(Envelope{TxID: "x", From: 1, To: 2, Msg: plainMsg{}}); err == nil {
		t.Fatal("sending a non-Wire message must error")
	}
}

// plainMsg implements only core.Message.
type plainMsg struct{}

func (plainMsg) Kind() string { return "PLAIN" }

// TestMeshRoundTripCopies: mesh deliveries must carry codec copies — the
// receiver must never alias the sender's slices (TCP semantics).
func TestMeshRoundTripCopies(t *testing.T) {
	mesh := NewMesh()
	recv := make(chan Envelope, 1)
	mesh.Endpoint(2).SetHandler(func(e Envelope) { recv <- e })
	sent := blobMsg{U: 1, B: []byte{1, 2, 3}}
	if err := mesh.Endpoint(1).Send(Envelope{TxID: "m", From: 1, To: 2, Msg: sent}); err != nil {
		t.Fatal(err)
	}
	e := <-recv
	got := e.Msg.(blobMsg)
	if !bytes.Equal(got.B, []byte{1, 2, 3}) {
		t.Fatalf("payload diverged: %v", got.B)
	}
	sent.B[0] = 99 // clobber the sender's slice
	if got.B[0] != 1 {
		t.Fatal("mesh delivered an aliased slice, want a codec copy")
	}
}

// TestTCPDeadConnEvictedAndRedialed is the regression test for the sticky
// dead-connection bug: after a peer's socket dies (sticky flush error), a
// later Send must evict the corpse and redial, so a restarted peer at the
// same address receives traffic again.
func TestTCPDeadConnEvictedAndRedialed(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	t2, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	addrs[1] = t2.Addr()
	t1, err := NewTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	recv := make(chan Envelope, 64)
	t2.SetHandler(func(e Envelope) { recv <- e })
	if err := t1.Send(Envelope{TxID: "pre", From: 1, To: 2, Msg: echoMsg{}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv:
	case <-time.After(5 * time.Second):
		t.Fatal("first send not delivered")
	}

	// Kill the peer and keep sending until the connection's error latches
	// (writes to a closed socket fail once the RST lands).
	t2.Close()
	for i := 0; i < 50; i++ {
		if err := t1.Send(Envelope{TxID: "dead", From: 1, To: 2, Msg: echoMsg{}}); err != nil {
			t.Fatalf("send into dead peer must stay silent, got %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Restart the peer on the SAME address; t1 must redial and deliver.
	t2b, err := NewTCP(2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()
	recv2 := make(chan Envelope, 64)
	t2b.SetHandler(func(e Envelope) { recv2 <- e })

	deadline := time.After(10 * time.Second)
	for {
		if err := t1.Send(Envelope{TxID: "back", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}); err != nil {
			t.Fatal(err)
		}
		select {
		case e := <-recv2:
			// A "dead" envelope may come first: the last of them were
			// buffered while the dial was being retried, and the restart
			// came in time for them.
			if e.TxID == "back" {
				return // the restarted peer is reachable again: bug fixed
			} else if e.TxID != "dead" {
				t.Fatalf("unexpected envelope %+v", e)
			}
		case <-time.After(100 * time.Millisecond):
		case <-deadline:
			t.Fatal("restarted peer never received traffic: dead conn not evicted")
		}
	}
}
