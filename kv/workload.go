package kv

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Workload describes a synthetic transaction mix over the store: Zipf-skewed
// key choice (the knob that induces contention), a read/write ratio, and a
// fixed number of operations per transaction. The zero value means the
// package defaults.
type Workload struct {
	// Keys is the keyspace size ("k-0" .. "k-<Keys-1>"); defaults to 256.
	Keys int
	// Theta is the Zipf skew in [0, 1): 0 = uniform, 0.99 = YCSB-style hot
	// spot. Higher theta concentrates traffic on few keys, raising the
	// conflict (and therefore abort) rate.
	Theta float64
	// ReadFrac is the fraction of operations that are reads; 0 is a
	// write-only mix.
	ReadFrac float64
	// OpsPerTxn is the number of operations per transaction; defaults to 4.
	OpsPerTxn int
}

func (w Workload) withDefaults() (Workload, error) {
	if w.Keys == 0 {
		w.Keys = 256
	}
	if w.OpsPerTxn == 0 {
		w.OpsPerTxn = 4
	}
	if w.Keys < 1 || w.Theta < 0 || w.Theta >= 1 || w.ReadFrac < 0 || w.ReadFrac > 1 || w.OpsPerTxn < 1 {
		return w, fmt.Errorf("kv: invalid workload %+v (need Keys>=1, 0<=Theta<1, 0<=ReadFrac<=1, OpsPerTxn>=1)", w)
	}
	return w, nil
}

// Op is one operation of a generated transaction.
type Op struct {
	Key  string
	Read bool
}

// Gen generates transactions for one Workload. A Gen is deterministic for a
// given seed and not safe for concurrent use; give each worker its own.
type Gen struct {
	w    Workload
	r    *rand.Rand
	zipf *zipfGen
	vals uint64
}

// Generator returns a deterministic generator for the workload.
func (w Workload) Generator(seed int64) (*Gen, error) {
	w, err := w.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Gen{w: w, r: rand.New(rand.NewSource(seed))}
	if w.Theta > 0 {
		g.zipf = newZipfGen(uint64(w.Keys), w.Theta)
	}
	return g, nil
}

// NextTxn returns the next transaction's operations. Keys within one
// transaction are distinct.
func (g *Gen) NextTxn() []Op {
	ops := make([]Op, 0, g.w.OpsPerTxn)
	seen := make(map[uint64]struct{}, g.w.OpsPerTxn)
	for len(ops) < g.w.OpsPerTxn {
		k := g.nextKey()
		if _, dup := seen[k]; dup {
			if len(seen) >= g.w.Keys {
				break // keyspace smaller than ops/txn
			}
			continue
		}
		seen[k] = struct{}{}
		ops = append(ops, Op{Key: fmt.Sprintf("k-%d", k), Read: g.r.Float64() < g.w.ReadFrac})
	}
	return ops
}

func (g *Gen) nextKey() uint64 {
	if g.zipf == nil {
		return uint64(g.r.Intn(g.w.Keys))
	}
	return g.zipf.next(g.r)
}

// Apply replays the operations on a transaction builder: all reads go
// through one GetMulti (one round trip of wall-clock, however many shards
// own the keys), then writes Put a fresh value in operation order.
func (g *Gen) Apply(t *Txn, ops []Op) {
	var reads []string
	for _, op := range ops {
		if op.Read {
			reads = append(reads, op.Key)
		}
	}
	if len(reads) > 0 {
		t.GetMulti(reads...)
	}
	for _, op := range ops {
		if !op.Read {
			g.vals++
			t.Put(op.Key, fmt.Sprintf("v-%d", g.vals))
		}
	}
}

// zipfGen is the standard YCSB/Gray zipfian generator, parameterized by
// theta in (0, 1) — unlike math/rand's Zipf, whose exponent must exceed 1.
// Item 0 is the hottest.
type zipfGen struct {
	n         uint64
	theta     float64
	alpha     float64
	zetan     float64
	eta       float64
	halfPowTh float64
}

func newZipfGen(n uint64, theta float64) *zipfGen {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipfGen{
		n:         n,
		theta:     theta,
		alpha:     1 / (1 - theta),
		zetan:     zetan,
		eta:       (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTh: math.Pow(0.5, theta),
	}
}

func (z *zipfGen) next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPowTh {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// RunConfig drives a workload against a store.
type RunConfig struct {
	// Txns is the total number of transactions; defaults to 256.
	Txns int
	// Workers is the number of concurrent committers, and so the most
	// transactions in flight at once; defaults to 16.
	Workers int
	// Seed makes the run reproducible; worker i uses Seed+i.
	Seed int64
}

// RunStats is the outcome of a workload run. Latencies are the per-
// transaction protocol latencies (dispatch to decision), sorted ascending.
// WallLatencies are the full user-visible transaction latencies (Txn
// creation to decision), sorted ascending — unlike Latencies they include
// the client's read legs and stage legs, so collapsing WAN round trips
// shows up here even when the protocol span is timer-bound.
type RunStats struct {
	Committed     int
	Aborted       int
	Elapsed       time.Duration
	Latencies     []time.Duration
	WallLatencies []time.Duration
}

// AbortRate is the fraction of transactions that decided abort.
func (s RunStats) AbortRate() float64 {
	total := s.Committed + s.Aborted
	if total == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(total)
}

// TxnsPerSec is the decided-transaction throughput of the run.
func (s RunStats) TxnsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Committed+s.Aborted) / s.Elapsed.Seconds()
}

// Percentile returns the p-th (0..1) protocol latency percentile.
func (s RunStats) Percentile(p float64) time.Duration {
	return percentileOf(s.Latencies, p)
}

func percentileOf(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// Run drives cfg.Txns generated transactions through the store from
// cfg.Workers concurrent workers and aggregates outcomes. Aborts (induced
// by conflicts) are counted, not retried — the abort rate is the
// measurement. An infrastructure error from any transaction stops the run.
func Run(ctx context.Context, s *Store, w Workload, cfg RunConfig) (RunStats, error) {
	if cfg.Txns <= 0 {
		cfg.Txns = 256
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Workers > cfg.Txns {
		cfg.Workers = cfg.Txns
	}

	var (
		committed atomic.Int64
		aborted   atomic.Int64
		rem       atomic.Int64
		mu        sync.Mutex
		latencies = make([]time.Duration, 0, cfg.Txns)
		walls     = make([]time.Duration, 0, cfg.Txns)
		firstErr  error
	)
	rem.Store(int64(cfg.Txns))

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen, err := w.Generator(cfg.Seed + int64(i))
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			local := make([]time.Duration, 0, cfg.Txns/cfg.Workers+1)
			wlocal := make([]time.Duration, 0, cfg.Txns/cfg.Workers+1)
			for rem.Add(-1) >= 0 {
				begin := time.Now()
				t := s.Txn().WithContext(ctx)
				gen.Apply(t, gen.NextTxn())
				p, err := t.Submit(ctx)
				if err == nil {
					var ok bool
					ok, err = p.Wait(ctx)
					if err == nil {
						if ok {
							committed.Add(1)
						} else {
							aborted.Add(1)
						}
						local = append(local, p.Latency())
						wlocal = append(wlocal, time.Since(begin))
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			walls = append(walls, wlocal...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if firstErr != nil {
		return RunStats{}, firstErr
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	return RunStats{
		Committed:     int(committed.Load()),
		Aborted:       int(aborted.Load()),
		Elapsed:       elapsed,
		Latencies:     latencies,
		WallLatencies: walls,
	}, nil
}
