package bench

import (
	"strings"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols"
)

// TestRun drives one small run per runtime: a row per cell, every measured
// transaction accounted for exactly once, and percentiles that make sense.
func TestRun(t *testing.T) {
	const txns = 48
	cases := []struct {
		name string
		cfg  Config
		rows int
		// aborts: the cells must not all commit everything
		aborts bool
	}{
		{name: "mesh", rows: 2, cfg: Config{Runtime: "mesh", Protocols: []string{"2pc"}, Depths: []int{1, 8}, N: 3, F: 1}},
		{name: "tcp", rows: 2, cfg: Config{Runtime: "tcp", Protocols: []string{"2pc"}, Depths: []int{1, 4}, N: 3, F: 1, Timeout: 20 * time.Millisecond}},
		// 32 keys under 16 workers: the skewed cells see real conflicts.
		{name: "kv", rows: 4, aborts: true, cfg: Config{Runtime: "kv", Protocols: []string{"2pc", "inbac"}, Depths: []int{16}, N: 4, F: 1,
			Thetas: []float64{0, 0.9}, Keys: 32, ReadFrac: 0.5, Timeout: 20 * time.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Txns = txns
			rows, out, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != tc.rows {
				t.Fatalf("want %d rows, got %d", tc.rows, len(rows))
			}
			voteAborts := 0
			for _, r := range rows {
				if r.Runtime != tc.name {
					t.Errorf("row runtime %q, want %q", r.Runtime, tc.name)
				}
				if got := r.Committed + r.VoteAborts + r.TimingAborts + r.InfraAborts; got != txns {
					t.Errorf("%d of %d transactions accounted for: %+v", got, txns, r)
				}
				if r.Committed == 0 || r.CommittedPerSec <= 0 || r.DecidedPerSec < r.CommittedPerSec || r.P50 <= 0 || r.P99 < r.P50 {
					t.Errorf("implausible row %+v", r)
				}
				voteAborts += r.VoteAborts
			}
			if tc.aborts && voteAborts == 0 {
				t.Error("hot-key workload induced no vote aborts; the cell is vacuous")
			}
			if !strings.Contains(out, "committed/s") || !strings.Contains(out, "2pc") {
				t.Errorf("table rendering:\n%s", out)
			}
		})
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Runtime: "carrier-pigeon", Protocols: []string{"2pc"}, Depths: []int{1}, Txns: 1, N: 3, F: 1},
		{Runtime: "kv", Geo: "atlantis", Protocols: []string{"2pc"}, Depths: []int{1}, Txns: 1, N: 3, F: 1},
		{Runtime: "mesh", Protocols: []string{"2pc"}, Depths: []int{0}, Txns: 1, N: 3, F: 1},
		{Runtime: "mesh", Depths: []int{1}, Txns: 1, N: 3, F: 1},
	} {
		if _, _, err := Run(cfg); err == nil {
			t.Errorf("%+v must be rejected", cfg)
		}
	}
}

// TestRunAllAbortCellReadsZero: a cell in which a participant votes no on
// everything decides quickly and commits nothing. Its headline must say so.
func TestRunAllAbortCellReadsZero(t *testing.T) {
	for _, runtime := range []string{"mesh", "tcp"} {
		rows, out, err := Run(Config{
			Runtime: runtime, Protocols: []string{"2pc"}, Depths: []int{8}, Txns: 32, N: 3, F: 1,
			Timeout: 20 * time.Millisecond,
			resource: func(i int) commit.Resource {
				return commit.ResourceFunc{PrepareFn: func(string) bool { return i != 1 }}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0]
		if r.CommittedPerSec != 0 || r.Committed != 0 || r.VoteAborts != 32 {
			t.Errorf("%s: an all-abort cell must read 0 committed txn/s with every transaction under vote: %+v", runtime, r)
		}
		if r.DecidedPerSec <= 0 {
			t.Errorf("%s: the aborts are decisions: %+v", runtime, r)
		}
		// The first rate column of the table is the committed one.
		if c, d := strings.Index(out, "committed/s"), strings.Index(out, "decided/s"); c < 0 || d < c {
			t.Errorf("committed/s must come before decided/s:\n%s", out)
		}
	}
}

// TestRunFilesRefusedValidationUnderVote: one key, half the transactions a
// blind write of it and half a read of it. The reads are read-only
// transactions, which run no protocol: one that a writer's intent or a newer
// version gets refused has no Prepare that voted no, and is a conflict all
// the same — it must not read as a timing abort.
func TestRunFilesRefusedValidationUnderVote(t *testing.T) {
	rows, _, err := Run(Config{Runtime: "kv", Protocols: []string{"2pc"}, Depths: []int{8}, Txns: 64, N: 3, F: 1,
		Keys: 1, ReadFrac: 0.5, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r := rows[0]; r.VoteAborts == 0 || r.TimingAborts != 0 {
		t.Errorf("conflicts on one hot key must all be vote aborts: %+v", r)
	}
}

// TestConsecutiveKVCellsUnderOneAuditor: cells used to name their
// transactions alike (kv-c5-0, kv-c5-1, ...), so under one auditor the
// second cell's decisions read as the first cell's processes changing their
// minds (audit-stability).
func TestConsecutiveKVCellsUnderOneAuditor(t *testing.T) {
	inbac, _ := protocols.ByName("inbac")
	aud := obs.NewAuditor(obs.AuditorConfig{Contracts: map[string]nbac.Contract{"inbac": inbac.Contract}})
	obs.SetAuditor(aud)
	defer obs.SetAuditor(nil)

	cfg := Config{Runtime: "kv", Protocols: []string{"inbac"}, Depths: []int{4}, Txns: 24, N: 4, F: 1,
		Thetas: []float64{0.7, 0.7}, Keys: 64, ReadFrac: 0.5, Timeout: 20 * time.Millisecond}
	for run := 0; run < 2; run++ {
		if _, _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	s := aud.Summary()
	if s.TxnsChecked < 4*24 {
		t.Errorf("auditor checked %d transactions, want at least %d", s.TxnsChecked, 4*24)
	}
	if len(s.Violations) != 0 {
		t.Errorf("property violations across cells: %v (e.g. %v)", s.Violations, s.ViolationTxns)
	}
}
