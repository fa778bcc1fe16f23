package kv

import (
	"context"
	"fmt"
	"testing"
	"time"

	"atomiccommit/commit"
)

func benchStore(b *testing.B, shards int) *Store {
	b.Helper()
	s, err := Open(shards, commit.Options{Timeout: 5 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

// BenchmarkTxnCommit measures one uncontended multi-shard transaction at a
// time: the kv layer's serial floor.
func BenchmarkTxnCommit(b *testing.B) {
	s := benchStore(b, 4)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := s.Txn()
		txn.Put(fmt.Sprintf("a-%d", i), "v")
		txn.Put(fmt.Sprintf("b-%d", i), "v")
		ok, err := txn.Commit(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("uncontended transaction aborted")
		}
	}
}

// BenchmarkWorkload pipelines the built-in workload at two contention
// levels, reporting abort rate alongside ns/op.
func BenchmarkWorkload(b *testing.B) {
	for _, theta := range []float64{0, 0.9} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			s := benchStore(b, 4)
			w := Workload{Keys: 256, Theta: theta, ReadFrac: 0.5, OpsPerTxn: 4}
			b.ResetTimer()
			start := time.Now()
			_, aborted, err := runWorkload(context.Background(), s, w, b.N, 32, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(aborted)/float64(b.N), "aborts/txn")
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "txn/s")
		})
	}
}
