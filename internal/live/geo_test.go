package live

import (
	"net"
	"sync"
	"testing"
	"time"

	"atomiccommit/internal/core"
)

// freeAddrs reserves n loopback addresses by binding and immediately
// releasing them (the bench harness uses the same idiom).
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func newTCP(t *testing.T, id core.ProcessID, addrs []string) *TCP {
	t.Helper()
	tr, err := NewTCP(id, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestNamedProfiles(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := NamedProfile(name)
		if err != nil {
			t.Fatalf("NamedProfile(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("profile %q reports Name %q", name, p.Name)
		}
		if len(p.OneWay) != len(p.Regions) {
			t.Errorf("profile %q: %d regions but %d matrix rows", name, len(p.Regions), len(p.OneWay))
		}
		for i, row := range p.OneWay {
			if len(row) != len(p.Regions) {
				t.Errorf("profile %q row %d: %d cells", name, i, len(row))
			}
			for j := range row {
				if row[i] != p.OneWay[j][i] && row[j] != p.OneWay[j][i] {
					// matrix must be symmetric
					t.Errorf("profile %q: OneWay[%d][%d]=%v != OneWay[%d][%d]=%v",
						name, i, j, row[j], j, i, p.OneWay[j][i])
				}
			}
		}
		if got := p.SuggestedTimeout(); got < p.MaxOneWay() {
			t.Errorf("profile %q: SuggestedTimeout %v below MaxOneWay %v", name, got, p.MaxOneWay())
		}
	}
	if _, err := NamedProfile("atlantis"); err == nil {
		t.Fatal("NamedProfile(atlantis) should fail")
	}
}

func TestRegionAssignment(t *testing.T) {
	p, err := NamedProfile("us-eu-ap")
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin: P1=us, P2=eu, P3=ap, P4=us, ...
	want := []string{"us", "eu", "ap", "us", "eu", "ap"}
	for i, w := range want {
		if got := p.RegionOf(core.ProcessID(i + 1)); got != w {
			t.Errorf("RegionOf(%d) = %q, want %q", i+1, got, w)
		}
	}
	p.Pin(5, "ap")
	if got := p.RegionOf(5); got != "ap" {
		t.Errorf("pinned RegionOf(5) = %q, want ap", got)
	}
	// Pins must not disturb other IDs.
	if got := p.RegionOf(4); got != "us" {
		t.Errorf("RegionOf(4) = %q, want us", got)
	}

	// Delays: intra-region uses Intra, cross-region uses the matrix cell,
	// symmetric both ways.
	if d := p.DelayBetween(1, 4); d != p.Intra {
		t.Errorf("us->us delay %v, want Intra %v", d, p.Intra)
	}
	dUsEu := p.DelayBetween(1, 2)
	if dUsEu != 42*time.Millisecond {
		t.Errorf("us->eu delay %v, want 42ms", dUsEu)
	}
	if back := p.DelayBetween(2, 1); back != dUsEu {
		t.Errorf("eu->us delay %v != us->eu %v", back, dUsEu)
	}
}

// TestShapedTCPDelay sends an envelope through a shaped TCP link and checks
// the imposed one-way delay is observed end to end on a real socket.
func TestShapedTCPDelay(t *testing.T) {
	t.Parallel()
	addrs := freeAddrs(t, 2)
	t1 := newTCP(t, 1, addrs)
	t2 := newTCP(t, 2, addrs)

	p := &NetProfile{
		Name:    "test",
		Regions: []string{"a", "b"},
		OneWay:  [][]time.Duration{{0, 30 * time.Millisecond}, {30 * time.Millisecond, 0}},
	}
	t1.SetShaper(p.Shaper(time.Now()))

	got := make(chan time.Time, 1)
	t2.SetHandler(func(e Envelope) { got <- time.Now() })

	start := time.Now()
	if err := t1.Send(Envelope{TxID: "geo-1", From: 1, To: 2, Path: "p", Msg: echoMsg{V: core.Commit}}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if elapsed := at.Sub(start); elapsed < 25*time.Millisecond {
			t.Errorf("envelope arrived after %v; want >= ~30ms one-way delay", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shaped envelope never arrived")
	}
}

// TestShapedTCPPartition verifies a partition window swallows envelopes
// while open and lets them through once it closes.
func TestShapedTCPPartition(t *testing.T) {
	t.Parallel()
	addrs := freeAddrs(t, 2)
	t1 := newTCP(t, 1, addrs)
	t2 := newTCP(t, 2, addrs)

	p := &NetProfile{
		Name:    "test",
		Regions: []string{"a", "b"},
		OneWay:  [][]time.Duration{{0, 0}, {0, 0}},
		Partitions: []PartitionWindow{
			{A: "a", B: "b", Start: 0, End: 150 * time.Millisecond},
		},
	}
	t1.SetShaper(p.Shaper(time.Now()))

	var mu sync.Mutex
	var arrived []string
	t2.SetHandler(func(e Envelope) {
		mu.Lock()
		arrived = append(arrived, e.TxID)
		mu.Unlock()
	})

	if err := t1.Send(Envelope{TxID: "cut", From: 1, To: 2, Path: "p", Msg: echoMsg{V: core.Commit}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // window closed now
	if err := t1.Send(Envelope{TxID: "healed", From: 1, To: 2, Path: "p", Msg: echoMsg{V: core.Commit}}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(arrived)
		var last string
		if n > 0 {
			last = arrived[n-1]
		}
		mu.Unlock()
		if n > 0 {
			if last != "healed" || n != 1 {
				t.Fatalf("arrived = %v; want exactly [healed]", arrived)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("post-partition envelope never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
