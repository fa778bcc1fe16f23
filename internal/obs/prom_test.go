package obs

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the text exposition format against a
// golden file: a counter pair, sorted by name.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("commit.ok").Add(3)
	r.Counter("obs.anomalies").Add(1)

	var b bytes.Buffer
	WritePrometheus(&b, r)

	golden, err := os.ReadFile("testdata/metrics.prom.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got, want := b.String(), string(golden); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPromNameMangling(t *testing.T) {
	cases := map[string]string{
		"commit.latency_ns.inbac.fast": "commit_latency_ns_inbac_fast",
		"decide_path.2pc.vote-commit":  "decide_path_2pc_vote_commit",
		"2pc":                          "_pc",
		"a:b":                          "a:b",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDebugMetricsProm serves the endpoint and checks the content type
// and that the exposition carries a known global counter.
func TestDebugMetricsProm(t *testing.T) {
	c := M.Counter("obs.prom_endpoint_test")
	want := fmt.Sprintf("obs_prom_endpoint_test %d", c.Value()+7)
	c.Add(7)
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/metrics.prom")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("content type %q, want %q", ct, PrometheusContentType)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("exposition missing counter:\n%s", b.String())
	}
}
