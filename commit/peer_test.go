package commit

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// reserveAddrs grabs n distinct loopback addresses by binding and releasing
// ephemeral ports (small reuse race, fine on loopback in tests).
func reserveAddrs(t *testing.T, n int) []string {
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

func TestNewPeerValidation(t *testing.T) {
	t.Parallel()
	addrs := reserveAddrs(t, 3)
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}

	cases := []struct {
		name  string
		id    int
		addrs []string
		res   Resource
		want  error
	}{
		{"nil resource", 1, addrs, nil, ErrNilResource},
		{"id zero", 0, addrs, ResourceFunc{}, ErrPeerID},
		{"id negative", -3, addrs, ResourceFunc{}, ErrPeerID},
		{"id beyond n", 4, addrs, ResourceFunc{}, ErrPeerID},
		{"empty addr", 1, []string{addrs[0], "", addrs[2]}, ResourceFunc{}, ErrBadAddrs},
		{"duplicate addr", 1, []string{addrs[0], addrs[1], addrs[0]}, ResourceFunc{}, ErrBadAddrs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPeer(tc.id, tc.addrs, tc.res, opts)
			if p != nil {
				p.Close()
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("NewPeer: err = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}

	// Sanity: a valid configuration still starts.
	p, err := NewPeer(1, addrs, ResourceFunc{}, opts)
	if err != nil {
		t.Fatalf("valid NewPeer failed: %v", err)
	}
	p.Close()
}

func TestNewClientValidation(t *testing.T) {
	t.Parallel()
	addrs := reserveAddrs(t, 3)
	opts := Options{Protocol: INBAC, F: 1, Timeout: 25 * time.Millisecond}

	// A client ID inside the peer range would collide with a participant.
	for _, id := range []int{0, 1, 3} {
		c, err := NewClient(id, addrs, opts)
		if c != nil {
			c.Close()
		}
		if !errors.Is(err, ErrPeerID) {
			t.Fatalf("NewClient(%d): err = %v, want errors.Is(err, ErrPeerID)", id, err)
		}
	}
	// So would one attached to a Cluster's mesh, and, at n+1, one with the
	// cluster's own client.
	cl, err := NewCluster([]Resource{ResourceFunc{}, ResourceFunc{}, ResourceFunc{}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, id := range []int{0, 1, 3, 4} {
		if _, err := cl.NewClient(id); !errors.Is(err, ErrPeerID) {
			t.Fatalf("Cluster.NewClient(%d): err = %v, want errors.Is(err, ErrPeerID)", id, err)
		}
	}
	if _, err := NewClient(4, []string{addrs[0], addrs[0], addrs[2]}, opts); !errors.Is(err, ErrBadAddrs) {
		t.Fatalf("NewClient with duplicate addrs: err = %v, want ErrBadAddrs", err)
	}

	c, err := NewClient(4, addrs, opts)
	if err != nil {
		t.Fatalf("valid NewClient failed: %v", err)
	}
	if c.ID() != 4 {
		t.Fatalf("ID() = %d, want 4", c.ID())
	}
	c.Close()
	// Closing twice is a no-op; calls after Close error instead of hanging.
	c.Close()
	if _, err := c.Query(nil, 1, resultMsg{}); err == nil {
		t.Fatal("Query after Close should error")
	}
}

// TestValidateAddrsMessages pins the error detail (index attribution) so
// misconfigurations are debuggable.
func TestValidateAddrsMessages(t *testing.T) {
	t.Parallel()
	err := validateAddrs([]string{"a:1", "", "c:3"})
	if err == nil || !errors.Is(err, ErrBadAddrs) {
		t.Fatalf("err = %v", err)
	}
	if want := "addrs[1]"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %s", err, want)
	}
	err = validateAddrs([]string{"a:1", "b:2", "a:1"})
	if err == nil || !errors.Is(err, ErrBadAddrs) {
		t.Fatalf("err = %v", err)
	}
	for _, want := range []string{"addrs[0]", "addrs[2]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
