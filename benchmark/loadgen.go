package main

import (
	"math"
	"math/rand"
	"strconv"
)

// txnKind is what one generated transaction does.
type txnKind uint8

const (
	// kindCommit is a bare commit (no keys): the peer and mesh workloads,
	// where every resource votes yes.
	kindCommit txnKind = iota
	// kindTransfer reads two keys and writes both: -amount, +amount.
	kindTransfer
	// kindReadOnly reads four keys through one GetMulti and commits the
	// read set (the shards validate the versions at Prepare).
	kindReadOnly
)

// txnSpec is one generated transaction: everything the program under test
// receives from the generator.
type txnSpec struct {
	Kind   txnKind
	Keys   []string
	Amount int
}

// genConfig is the seeded part of a workload: keyspace, skew and mix.
// Keys == 0 generates bare commits.
type genConfig struct {
	Keys         int
	Theta        float64 // Zipf skew in [0,1); 0 = uniform
	TransferFrac float64 // share of transfers; the rest are read-only
}

// zipf draws ranks in [0,n) with P(rank i) ∝ 1/(i+1)^theta — the YCSB
// generator (Gray et al., "Quickly generating billion-record synthetic
// databases"); math/rand's Zipf needs an exponent above 1. Immutable after
// construction, so every client's generator shares one.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) next(r *rand.Rand) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// generator yields one client's transaction sequence. Every choice derives
// from (seed, client) alone, so a run's inputs repeat exactly under the
// same seed whatever the program under test does with them.
type generator struct {
	cfg  genConfig
	rng  *rand.Rand
	zipf *zipf
}

func newGenerator(cfg genConfig, z *zipf, seed int64, client int) *generator {
	mixed := int64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(client)*0xBF58476D1CE4E5B9)
	return &generator{cfg: cfg, rng: rand.New(rand.NewSource(mixed)), zipf: z}
}

func (g *generator) key() int {
	if g.zipf != nil {
		return g.zipf.next(g.rng)
	}
	return g.rng.Intn(g.cfg.Keys)
}

// next returns the next transaction. Keys within one transaction are
// distinct.
func (g *generator) next() txnSpec {
	if g.cfg.Keys == 0 {
		return txnSpec{Kind: kindCommit}
	}
	spec := txnSpec{Kind: kindReadOnly}
	want := 4
	if g.rng.Float64() < g.cfg.TransferFrac {
		spec.Kind, want = kindTransfer, 2
		spec.Amount = 1 + g.rng.Intn(100)
	}
	var picked [4]int
	spec.Keys = make([]string, 0, want)
	for len(spec.Keys) < want {
		k := g.key()
		dup := false
		for _, p := range picked[:len(spec.Keys)] {
			dup = dup || p == k
		}
		if dup {
			continue
		}
		picked[len(spec.Keys)] = k
		spec.Keys = append(spec.Keys, "k"+strconv.Itoa(k))
	}
	return spec
}
