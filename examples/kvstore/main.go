// KVStore: the sharded transactional key-value store (package kv) in
// action. Every shard is one participant of an atomic-commit cluster;
// conflicting transactions vote each other down Helios-style (the paper's
// introduction) and the commit protocol turns any "no" into a global abort.
//
// The demo commits a multi-shard write, races two conflicting transactions
// to show conflict-induced abort, then runs the built-in Zipf workload
// against three protocols and reports txn/s and the abort rate each one
// induces under a hot-key mix.
//
//	go run ./examples/kvstore
package main

import (
	"context"
	"fmt"
	"log"
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

	// The same store shape under load, per protocol: the built-in workload
	// generator induces conflicts via Zipf-skewed key choice, and the abort
	// rate — not just latency — becomes a protocol-visible number.
	w := kv.Workload{Keys: 256, Theta: 0.9, ReadFrac: 0.5, OpsPerTxn: 4}
	fmt.Println("hot-key workload (theta=0.9, 256 keys, 50% reads, 4 ops/txn), 200 txns, 16 workers:")
	for _, proto := range []commit.Protocol{commit.TwoPC, commit.INBAC, commit.PaxosCommit} {
		s, err := kv.Open(4, commit.Options{Protocol: proto, F: 1, Timeout: 10 * time.Millisecond})
		if err != nil {
			log.Fatal(err)
		}
		stats, err := kv.Run(ctx, s, w, kv.RunConfig{Txns: 200, Workers: 16, Seed: 42})
		s.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %6.0f txn/s  p50=%-10s abort rate %4.1f%%  (%s)\n",
			proto, stats.TxnsPerSec(), stats.Percentile(0.5).Round(time.Microsecond),
			100*stats.AbortRate(), note(proto))
	}
	fmt.Println("\n2PC and INBAC share the 2-delay latency; only INBAC survives coordinator loss.")
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
