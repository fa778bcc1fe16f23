package kv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"atomiccommit/commit"
)

// The store's client spawns nothing per transaction: a read batch goes out
// from its owner's long-lived sender, and validations, read-only verdicts
// and cache notes are callbacks on the client's delivery path, bounded by
// the client's one sweep. These tests pin that.

// TestRemoteStoreSpawnsNothingPerTxn: 256 transactions in flight on an
// OpenRemote store — two-key transfers whose applies every shard holds, so
// that no coordinator answers, and three-shard read-only ones whose
// validations no shard answers (a query's own bound is 32 U, 1.6 s) — grow
// the goroutine count by a small constant; the store used to park a
// goroutine per commit's cache note, per read-only commit and per validation
// hop. After Store.Close every future has resolved and the count is back at
// its base. No go statement is left in the client's source, and Query asks
// for no context per call. Not parallel: it counts the process's goroutines.
func TestRemoteStoreSpawnsNothingPerTxn(t *testing.T) {
	const n, inFlight = 3, 256
	s, spies := spyDeployment(t, n, commit.Options{Protocol: commit.INBAC, F: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A transfer and a read-only transaction first: every connection the
	// count could see being made, client to peer and peer to peer, exists
	// before it is taken.
	warm := s.Txn()
	warm.Put("warm-a", "1")
	warm.Put("warm-b", "1")
	if _, err := warm.Commit(ctx); err != nil {
		t.Fatalf("warm-up transfer: %v", err)
	}
	var spread []string
	for _, ks := range keysAcrossShards(t, n, 1, "spawn-ro") {
		spread = append(spread, ks...)
	}
	ro := s.Txn().WithContext(ctx)
	if _, _, err := ro.GetMulti(spread...); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Commit(ctx); err != nil {
		t.Fatalf("warm-up read-only: %v", err)
	}

	// Read everything first; then no validation is answered, and no
	// transfer is applied, while the count is taken.
	txns := make([]*Txn, inFlight)
	for i := range txns {
		txns[i] = s.Txn().WithContext(ctx)
		if i%2 == 0 {
			a, b := fmt.Sprintf("spawn-%d-a", i), fmt.Sprintf("spawn-%d-b", i)
			if _, _, err := txns[i].GetMulti(a, b); err != nil {
				t.Fatal(err)
			}
			txns[i].Put(a, "-1")
			txns[i].Put(b, "+1")
		} else if _, _, err := txns[i].GetMulti(spread...); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range spies {
		sp.mute.Store(true)
	}
	release := holdApplies(t, spies)
	runtime.GC()
	base := runtime.NumGoroutine()
	pending := make([]*Pending, inFlight)
	for i, x := range txns {
		p, err := x.Submit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	peak := base
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		time.Sleep(10 * time.Millisecond)
		peak = max(peak, runtime.NumGoroutine())
	}
	for _, p := range pending {
		select {
		case <-p.Done():
			_, err := p.Wait(ctx)
			t.Fatalf("%s resolved (err=%v) while the count was taken", p.TxID(), err)
		default:
		}
	}
	s.Close()
	for _, p := range pending {
		if _, err := p.Wait(ctx); err == nil {
			t.Fatalf("%s: resolved without an error after Store.Close", p.TxID())
		}
	}
	release()
	t.Logf("%d transactions in flight grew the goroutine count by %d", inFlight, peak-base)
	if peak-base >= 16 {
		t.Fatal("a goroutine per transaction")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after Store.Close: %d goroutines, base %d", runtime.NumGoroutine(), base)
		}
	}

	for file, banned := range map[string]string{
		"txn.go":              "go ",
		"remote.go":           "go ",
		"../commit/client.go": "context.With" + "Timeout",
	} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "//") {
				continue
			}
			if banned == "go " && strings.HasPrefix(line, banned) || banned != "go " && strings.Contains(line, banned) {
				t.Errorf("%s:%d: %q spawns or times per call: %s", file, i+1, banned, line)
			}
		}
	}
}

// TestReadOnlySubmitContextEnds: a read-only Submit whose context ends while
// a validation is unanswered resolves with the context's error, at once and
// once — the validation, answered later by the client's sweep, resolves
// nothing a second time.
func TestReadOnlySubmitContextEnds(t *testing.T) {
	t.Parallel()
	const n = 3
	opts := commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 5 * time.Millisecond} // a query expires after 160ms
	s, spies := spyDeployment(t, n, opts)
	var keys []string
	for _, ks := range keysAcrossShards(t, n, 1, "ro-ctx") {
		keys = append(keys, ks...)
	}
	txn := s.Txn()
	if _, _, err := txn.GetMulti(keys...); err != nil {
		t.Fatal(err)
	}
	spies[1].mute.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	p, err := txn.Submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-p.Done():
	case <-time.After(100 * time.Millisecond): // the validation's own bound is 160ms
		t.Fatal("the future did not resolve when its context ended")
	}
	if ok, err := p.Wait(context.Background()); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("ok=%v err=%v, want the context's error", ok, err)
	}
	// Past the validation's bound: its verdict must find the future resolved.
	time.Sleep(64 * opts.Timeout)
}
