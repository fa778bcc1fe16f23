package live

import (
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/obs"
)

// TestUnobservedEnvelopesCarryNoStamp: an envelope is stamped only while
// something reads the stamp. With the flight recorder off and no auditor, a
// TCP or a mesh delivery carries HLC 0 and the process clock does not move;
// with the recorder on, or with only an auditor set, every delivery carries
// a stamp, each above the one before. Not parallel: the recorder, the
// auditor and the clock are the process's.
func TestUnobservedEnvelopesCarryNoStamp(t *testing.T) {
	if obs.Default.Enabled() || obs.ActiveAuditor() != nil {
		t.Fatal("the recorder or an auditor is already on")
	}
	type link struct {
		name string
		send func(Envelope) error
		got  <-chan obs.HLC
	}
	const k = 16 // envelopes per link and round
	stamps := func(tr Transport) <-chan obs.HLC {
		got := make(chan obs.HLC, k)
		tr.SetHandler(func(e Envelope) { got <- e.HLC })
		return got
	}

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
	mesh := NewMesh()
	defer mesh.Endpoint(2).Close()
	links := []link{
		{"tcp", t1.Send, stamps(t2)},
		{"mesh", mesh.Endpoint(1).Send, stamps(mesh.Endpoint(2))},
	}

	// deliver sends k envelopes on each link and returns the stamps each
	// link delivered, in delivery order.
	deliver := func(t *testing.T) map[string][]obs.HLC {
		t.Helper()
		out := make(map[string][]obs.HLC)
		for _, l := range links {
			for i := 0; i < k; i++ {
				if err := l.send(Envelope{TxID: "stamp", From: 1, To: 2, Msg: echoMsg{V: core.Commit}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < k; i++ {
				select {
				case h := <-l.got:
					out[l.name] = append(out[l.name], h)
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: delivery %d never came", l.name, i)
				}
			}
		}
		return out
	}

	t.Run("unobserved", func(t *testing.T) {
		before := obs.ProcessClock.Now()
		for name, hs := range deliver(t) {
			for i, h := range hs {
				if h != 0 {
					t.Errorf("%s: delivery %d carries stamp %v, want 0", name, i, h)
				}
			}
		}
		if now := obs.ProcessClock.Now(); now != before {
			t.Errorf("the process clock moved from %v to %v with nothing observing", before, now)
		}
	})

	watches := []struct {
		name    string
		on, off func()
	}{
		{"recorder", obs.Default.Enable, func() { obs.Default.Disable(); obs.Default.Reset() }},
		{"auditor", func() { obs.SetAuditor(obs.NewAuditor(obs.AuditorConfig{})) }, func() { obs.SetAuditor(nil) }},
	}
	for _, w := range watches {
		t.Run(w.name, func(t *testing.T) {
			w.on()
			defer w.off()
			for name, hs := range deliver(t) {
				var last obs.HLC
				for i, h := range hs {
					if h <= last {
						t.Errorf("%s: delivery %d carries stamp %v after %v, want a larger one", name, i, h, last)
					}
					last = h
				}
			}
		})
	}
}
