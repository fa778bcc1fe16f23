package debughttp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/obs"
)

// TestDebugHandler drives the HTTP observability surface.
func TestDebugHandler(t *testing.T) {
	obs.M.Counter("test.debug.counter").Add(7)
	obs.Default.Enable()
	defer obs.Default.Disable()
	defer obs.Default.Reset()
	obs.Default.Record(obs.Event{Kind: obs.EvSend, TxID: "tx-debug", Proc: 1, Peer: 2})

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var metrics map[string]any
	if err := json.Unmarshal(get("/debug/metrics"), &metrics); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if v, ok := metrics["test.debug.counter"]; !ok || v.(float64) < 7 {
		t.Errorf("metrics missing test.debug.counter: %v", metrics["test.debug.counter"])
	}
	var events []obs.Event
	if err := json.Unmarshal(get("/debug/trace?tx=tx-debug"), &events); err != nil {
		t.Fatalf("trace json: %v", err)
	}
	if len(events) != 1 || events[0].TxID != "tx-debug" {
		t.Errorf("trace returned %+v", events)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("pprof cmdline empty")
	}
	if body := get("/debug/vars"); !strings.Contains(string(body), "memstats") {
		t.Error("expvar missing memstats")
	}
}

// TestDebugMetricsProm serves the endpoint and checks the content type
// and that the exposition carries a known global counter.
func TestDebugMetricsProm(t *testing.T) {
	c := obs.M.Counter("obs.prom_endpoint_test")
	want := fmt.Sprintf("obs_prom_endpoint_test %d", c.Value()+7)
	c.Add(7)
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/metrics.prom")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("content type %q, want %q", ct, obs.PrometheusContentType)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("exposition missing counter:\n%s", b.String())
	}
}

// TestDebugAudit: /debug/audit reports a disabled auditor when none is
// installed, and the installed one's summary otherwise.
func TestDebugAudit(t *testing.T) {
	srv := httptest.NewServer(Handler())
	defer srv.Close()
	get := func() map[string]any {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/debug/audit")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("audit json: %v", err)
		}
		return v
	}

	if v := get(); v["enabled"] != false {
		t.Errorf("no auditor: got %v, want enabled=false", v)
	}
	obs.SetAuditor(obs.NewAuditor(obs.AuditorConfig{}))
	defer obs.SetAuditor(nil)
	if v := get(); v["enabled"] == false {
		t.Errorf("installed auditor: got %v, want its summary", v)
	}
}

// TestServe drives the endpoint a process serves while its peers commit:
// the counters they bump are on /debug/metrics, a second Serve on the bound
// address fails, and stop closes the listener.
func TestServe(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Serve(addr); err == nil {
		t.Error("second Serve on the bound address should fail")
	}

	peers := startPeers(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if ok, err := peers[0].Commit(ctx, "debug-1"); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var metrics map[string]any
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if v, ok := metrics["live.send.envelopes"].(float64); !ok || v <= 0 {
		t.Errorf("live.send.envelopes = %v, want > 0", metrics["live.send.envelopes"])
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(b) == 0 {
		t.Error("pprof cmdline empty")
	}

	// stop closes the listener: the address is free again.
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listener still bound after stop: %v", err)
	}
	ln.Close()
}

// startPeers boots n loopback 2PC peers that vote yes, on ports reserved by
// binding 127.0.0.1:0 and closing, and closes them with the test.
func startPeers(t *testing.T, n int) []*commit.Peer {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	peers := make([]*commit.Peer, n)
	for i := range peers {
		p, err := commit.NewPeer(i+1, addrs, commit.ResourceFunc{}, commit.Options{Protocol: "2pc", Timeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatalf("peer %d: %v", i+1, err)
		}
		peers[i] = p
		t.Cleanup(p.Close)
	}
	return peers
}
