package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestAnomalyHookConcurrent races SetAnomalyHook against ReportAnomaly
// (run under -race in CI): hook swaps must never tear a report, and
// every report must reach whichever hook was installed.
func TestAnomalyHookConcurrent(t *testing.T) {
	defer SetAnomalyHook(nil)
	var mu sync.Mutex
	seen := 0
	count := func(Dump) { mu.Lock(); seen++; mu.Unlock() }

	const reporters, reports = 4, 50
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				SetAnomalyHook(count)
			} else {
				SetAnomalyHook(func(Dump) {})
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < reporters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reports; i++ {
				ReportAnomaly("race-test", fmt.Sprintf("tx-%d-%d", r, i), "detail")
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
}

// TestReportAnomalyDumpDirFailure points the dump directory somewhere
// unwritable: reporting must not fail (the dump is still returned and
// the hook still fires) and the write failure must be counted.
func TestReportAnomalyDumpDirFailure(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	SetDumpDir(filepath.Join(file, "sub")) // parent is a file: writes fail
	defer SetDumpDir("")

	hooked := false
	SetAnomalyHook(func(Dump) { hooked = true })
	defer SetAnomalyHook(nil)

	before := M.Counter("obs.anomaly_dump_errors").Value()
	d := ReportAnomaly("dump-dir-failure-test", "tx-dump-fail", "detail")
	if d.Anomaly.Kind != "dump-dir-failure-test" {
		t.Fatalf("dump not returned: %+v", d.Anomaly)
	}
	if !hooked {
		t.Fatal("hook did not fire despite dump-dir failure")
	}
	if got := M.Counter("obs.anomaly_dump_errors").Value() - before; got != 1 {
		t.Fatalf("dump error counter moved by %d, want 1", got)
	}
}

// TestReportAnomalyDumpDirSuccessWritesFiles is the happy-path twin: the
// dump file appears, alone, and the error counter stays put.
func TestReportAnomalyDumpDirSuccessWritesFiles(t *testing.T) {
	dir := t.TempDir()
	SetDumpDir(dir)
	defer SetDumpDir("")

	before := M.Counter("obs.anomaly_dump_errors").Value()
	ReportAnomaly("dump-ok", "tx/ok:1", "detail")
	if got := M.Counter("obs.anomaly_dump_errors").Value() - before; got != 0 {
		t.Fatalf("dump error counter moved by %d on success", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "anomaly-tx_ok_1-dump-ok.json" {
		t.Fatalf("dump dir holds %v, want anomaly-tx_ok_1-dump-ok.json alone", entries)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"":                   "",
		"tx-42":              "tx-42",
		"a/b":                "a_b",
		`a\b`:                "a_b",
		"../../etc/passwd":   ".._.._etc_passwd",
		"tx:1 geo|eu":        "tx_1_geo_eu",
		"UPPER_lower.0-9":    "UPPER_lower.0-9",
		"späce and ünicode!": "sp_ce_and__nicode_",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
