package obs

import (
	"fmt"
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
