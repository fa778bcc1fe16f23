// KVStore: the sharded transactional key-value store (package kv) in
// action. Every shard is one participant of an atomic-commit cluster;
// conflicting transactions vote each other down Helios-style (the paper's
// introduction) and the commit protocol turns any "no" into a global abort.
//
// The demo commits a multi-shard write, races two conflicting transactions
// to show conflict-induced abort, then drives a Zipf-skewed hot-key mix
// (kv.Workload) through three protocols from 16 workers and reports txn/s,
// the median commit latency and the abort rate each one induces.
//
//	go run ./examples/kvstore
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"atomiccommit/commit"
	"atomiccommit/kv"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	store, err := kv.Open(4, commit.Options{Protocol: commit.INBAC, F: 1, Timeout: 10 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// A multi-shard transaction: the keys hash to different shards, yet
	// commit atomically through one INBAC instance.
	seed := store.Txn()
	seed.Put("user:7", "alice")
	seed.Put("order:1", "alice's order")
	seed.Put("audit:9", "created")
	if ok, err := seed.Commit(ctx); err != nil || !ok {
		log.Fatalf("seed: ok=%v err=%v", ok, err)
	}
	fmt.Println("seeded 3 keys across 4 shards in one atomic transaction")

	// Two transactions race for user:7. Both read it, both try to write it;
	// submitted concurrently, the commit protocol lets at most one win.
	txA, txB := store.Txn(), store.Txn()
	txA.Get("user:7")
	txB.Get("user:7")
	txA.Put("user:7", "alice-touched")
	txB.Put("user:7", "bob-touched")
	pA, err := txA.Submit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	pB, err := txB.Submit(ctx)
	if err != nil {
		log.Fatal(err)
	}
	okA, err := pA.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	okB, err := pB.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := store.Get("user:7")
	fmt.Printf("conflict race: txA committed=%v, txB committed=%v, user:7=%q\n\n", okA, okB, v)

	// The same store shape under load, per protocol: Zipf-skewed key choice
	// induces conflicts, and the abort rate — not just latency — becomes a
	// protocol-visible number.
	w := kv.Workload{Keys: 256, Theta: 0.9, ReadFrac: 0.5, OpsPerTxn: 4}
	fmt.Printf("hot-key workload (theta=0.9, 256 keys, 50%% reads, 4 ops/txn), %d txns, %d workers:\n", hotTxns, hotWorkers)
	for _, proto := range []commit.Protocol{commit.TwoPC, commit.INBAC, commit.PaxosCommit} {
		s, err := kv.Open(4, commit.Options{Protocol: proto, F: 1, Timeout: 10 * time.Millisecond})
		if err != nil {
			log.Fatal(err)
		}
		rate, p50, aborts := hotKeys(ctx, s, w)
		s.Close()
		fmt.Printf("%-14s %6.0f txn/s  p50=%-10s abort rate %4.1f%%  (%s)\n",
			proto, rate, p50.Round(time.Microsecond), 100*aborts, note(proto))
	}
	fmt.Println("\nINBAC acks at U and decides at 2U on its timers, so its p50 sits near 2U and 2PC's near U;")
	fmt.Println("deciding as soon as the acks arrive (ROADMAP direction 2) would bring it to 2PC's.")
	fmt.Println("Only INBAC and PaxosCommit survive coordinator loss.")
}

const hotTxns, hotWorkers = 200, 16

// hotKeys commits hotTxns transactions generated from w through s, from
// hotWorkers concurrent workers, and returns the decided transactions per
// second, the median Commit latency and the fraction that aborted.
func hotKeys(ctx context.Context, s *kv.Store, w kv.Workload) (rate float64, p50 time.Duration, aborts float64) {
	var (
		mu        sync.Mutex
		latencies []time.Duration
		aborted   int
		wg        sync.WaitGroup
	)
	start := time.Now()
	for i := range hotWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen, err := w.Generator(int64(42 + i))
			if err != nil {
				log.Fatal(err)
			}
			for j := i; j < hotTxns; j += hotWorkers {
				txn := s.Txn()
				gen.Apply(txn, gen.NextTxn())
				begin := time.Now()
				ok, err := txn.Commit(ctx)
				took := time.Since(begin)
				if err != nil {
					log.Fatal(err)
				}
				mu.Lock()
				latencies = append(latencies, took)
				if !ok {
					aborted++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	slices.Sort(latencies)
	return hotTxns / time.Since(start).Seconds(), latencies[(hotTxns-1)/2], float64(aborted) / hotTxns
}

func note(p commit.Protocol) string {
	switch p {
	case commit.TwoPC:
		return "2 delays, blocking"
	case commit.INBAC:
		return "2 delays, indulgent"
	case commit.PaxosCommit:
		return "3 delays, indulgent"
	}
	return ""
}
