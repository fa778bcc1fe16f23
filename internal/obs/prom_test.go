package obs

import (
	"bytes"
	"os"
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
