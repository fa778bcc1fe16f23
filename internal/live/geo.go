package live

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"atomiccommit/internal/core"
)

// LinkShaper shapes a process's outbound links: Delay returns the extra
// one-way latency to impose on an envelope, Drop suppresses it entirely (an
// emulated partition — the protocols already tolerate silence as a crash).
// Either function may be nil. Mesh.SetShaper and TCP.SetShaper both take
// one.
type LinkShaper struct {
	Delay func(e Envelope) time.Duration
	Drop  func(e Envelope) bool
}

// PartitionWindow cuts every link between two regions (both directions) for
// [Start, End) measured from the shaper's epoch — a deterministic, bounded
// network failure the indulgent protocols must survive.
type PartitionWindow struct {
	A, B       string // region names
	Start, End time.Duration
}

// NetProfile describes an emulated geo-distributed network: named regions,
// a symmetric one-way delay matrix between them, jitter, and optional
// partition windows. Participants are assigned to regions round-robin by
// process ID (process i lives in Regions[(i-1) % len(Regions)]); Pin
// overrides the assignment for specific IDs (clients, usually).
//
// A profile shapes only a process's OUTBOUND envelopes; every process in a
// deployment must therefore carry the same profile (and the same pins) for
// round trips to come out symmetric.
type NetProfile struct {
	Name    string
	Regions []string
	// OneWay[i][j] is the one-way delay from Regions[i] to Regions[j]
	// (i != j). The named profiles are symmetric.
	OneWay [][]time.Duration
	// Intra is the one-way delay within a region.
	Intra time.Duration
	// Jitter adds a uniform [0, Jitter) to every shaped envelope.
	Jitter time.Duration
	// Partitions lists link cuts relative to the shaper epoch.
	Partitions []PartitionWindow
	// Seed makes the jitter stream reproducible; 0 means 1.
	Seed int64

	pins map[core.ProcessID]string
}

// Pin assigns id to region, overriding the round-robin placement. It must
// be called before Shaper and identically in every process of the
// deployment.
func (p *NetProfile) Pin(id core.ProcessID, region string) {
	if p.pins == nil {
		p.pins = make(map[core.ProcessID]string)
	}
	p.pins[id] = region
}

// RegionOf reports the region process id lives in: its pinned region if
// any, else round-robin over Regions.
func (p *NetProfile) RegionOf(id core.ProcessID) string {
	if r, ok := p.pins[id]; ok {
		return r
	}
	if len(p.Regions) == 0 {
		return ""
	}
	return p.Regions[(int(id)-1)%len(p.Regions)]
}

func (p *NetProfile) regionIndex(name string) int {
	for i, r := range p.Regions {
		if r == name {
			return i
		}
	}
	return -1
}

// DelayBetween is the base one-way delay between two processes (before
// jitter): Intra within a region, the matrix cell across regions.
func (p *NetProfile) DelayBetween(from, to core.ProcessID) time.Duration {
	i, j := p.regionIndex(p.RegionOf(from)), p.regionIndex(p.RegionOf(to))
	if i < 0 || j < 0 || i == j {
		return p.Intra
	}
	return p.OneWay[i][j]
}

// MaxOneWay is the largest base one-way delay in the profile.
func (p *NetProfile) MaxOneWay() time.Duration {
	max := p.Intra
	for _, row := range p.OneWay {
		for _, d := range row {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// SuggestedTimeout is a sensible protocol timeout unit U for this network.
// The paper's model has every participant observe the transaction within
// one bounded delay of the others, but over a real matrix the begin
// message itself skews instance starts by up to MaxOneWay — a peer that
// started early waits on a vote that still has a begin leg plus a vote leg
// in flight. Two worst one-way delays (plus jitter and scheduling slack)
// cover that, keeping the fast path alive across the widest link.
// Options.Timeout defaults to this when a profile is set.
func (p *NetProfile) SuggestedTimeout() time.Duration {
	return 2*p.MaxOneWay() + p.Jitter + 25*time.Millisecond
}

// Shaper builds the per-process link shaper. epoch anchors the partition
// windows; processes booted together (or handed the same epoch) see the
// same cuts. The shaper is safe for concurrent use.
func (p *NetProfile) Shaper(epoch time.Time) LinkShaper {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	jitter := func() time.Duration {
		if p.Jitter <= 0 {
			return 0
		}
		mu.Lock()
		defer mu.Unlock()
		return time.Duration(rng.Int63n(int64(p.Jitter)))
	}
	return LinkShaper{
		Delay: func(e Envelope) time.Duration {
			return p.DelayBetween(e.From, e.To) + jitter()
		},
		Drop: func(e Envelope) bool {
			if len(p.Partitions) == 0 {
				return false
			}
			a, b := p.RegionOf(e.From), p.RegionOf(e.To)
			elapsed := time.Since(epoch)
			for _, w := range p.Partitions {
				if elapsed < w.Start || elapsed >= w.End {
					continue
				}
				if (w.A == a && w.B == b) || (w.A == b && w.B == a) {
					return true
				}
			}
			return false
		},
	}
}

// The built-in profiles. Delays are representative public-internet one-way
// latencies between cloud regions (us-east, eu-west, ap-northeast); "local"
// is a same-rack control with the shaping path active but near-zero delay.
func builtinProfiles() map[string]*NetProfile {
	ms := time.Millisecond
	return map[string]*NetProfile{
		"local": {
			Name:    "local",
			Regions: []string{"local"},
			OneWay:  [][]time.Duration{{0}},
			Intra:   200 * time.Microsecond,
			Jitter:  100 * time.Microsecond,
		},
		"us-eu": {
			Name:    "us-eu",
			Regions: []string{"us", "eu"},
			OneWay: [][]time.Duration{
				{0, 42 * ms},
				{42 * ms, 0},
			},
			Intra:  300 * time.Microsecond,
			Jitter: 2 * ms,
		},
		"us-eu-ap": {
			Name:    "us-eu-ap",
			Regions: []string{"us", "eu", "ap"},
			OneWay: [][]time.Duration{
				{0, 42 * ms, 76 * ms},
				{42 * ms, 0, 118 * ms},
				{76 * ms, 118 * ms, 0},
			},
			Intra:  300 * time.Microsecond,
			Jitter: 3 * ms,
		},
	}
}

// NamedProfile returns a fresh copy of a built-in profile (safe to Pin
// without affecting other users).
func NamedProfile(name string) (*NetProfile, error) {
	p, ok := builtinProfiles()[name]
	if !ok {
		return nil, fmt.Errorf("live: unknown geo profile %q (available: %v)", name, ProfileNames())
	}
	return p, nil
}

// ProfileNames lists the built-in geo profiles, sorted.
func ProfileNames() []string {
	m := builtinProfiles()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
