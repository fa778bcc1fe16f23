package kv

import (
	"fmt"
	"math"
	"math/rand"
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
