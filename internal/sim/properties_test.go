package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
)

// TestFloodDecisionIsANDProperty: for the reference flood protocol, the
// unanimous decision of any failure-free execution equals the AND of the
// vote vector — a quick-checked bridge between the kernel's vote plumbing
// and the metric layer.
func TestFloodDecisionIsANDProperty(t *testing.T) {
	cfgProp := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		votes := make([]core.Value, n)
		want := core.Commit
		for i := range votes {
			votes[i] = core.Value(rng.Intn(2))
			want = want.And(votes[i])
		}
		r := Run(Config{N: n, F: n - 1, Votes: votes, New: newFlood})
		v, ok := r.Decision()
		return ok && v == want && r.AllCorrectDecided() && len(r.Violations) == 0
	}
	if err := quick.Check(cfgProp, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMetricsInvariants quick-checks structural invariants of the
// measurement layer over random executions of the flood protocol with
// random crash schedules:
//
//   - MessagesToDecide never exceeds MessagesSent;
//   - per-path sends add up to the total;
//   - decision ticks never exceed the last decision tick;
//   - causal depth at decision never exceeds DelayUnits (a message chain
//     of depth d needs at least d units of time).
func TestMetricsInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		crash := map[core.ProcessID]core.Ticks{}
		if rng.Intn(2) == 0 {
			crash[core.ProcessID(1+rng.Intn(n))] = core.Ticks(rng.Int63n(int64(3 * DefaultU)))
		}
		r := Run(Config{N: n, F: n - 1, New: newFlood,
			Policy: Policy{Crash: func(p core.ProcessID) core.Ticks {
				if t, ok := crash[p]; ok {
					return t
				}
				return core.NoCrash
			}}})
		if r.MessagesToDecide > r.MessagesSent {
			return false
		}
		sum := 0
		for _, c := range r.SentByPath {
			sum += c
		}
		if sum != r.MessagesSent {
			return false
		}
		for _, tick := range r.DecisionTick {
			if tick > r.LastDecisionTick {
				return false
			}
		}
		for _, d := range r.DecisionDepth {
			if d > r.DelayUnits() {
				return false
			}
		}
		return len(r.Violations) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropsAlgebra quick-checks the property-set lattice used by the
// contract checker.
func TestPropsAlgebra(t *testing.T) {
	clamp := func(b byte) nbac.Props { return nbac.Props(b) & nbac.PropsAVT }
	if err := quick.Check(func(a, b byte) bool {
		x, y := clamp(a), clamp(b)
		union := x | y
		return union.Has(x) && union.Has(y) && x.Has(x) && (!x.Has(union) || x == union)
	}, nil); err != nil {
		t.Error(err)
	}
	if nbac.PropsAVT.String() != "AVT" || nbac.PropsNone.String() != "∅" || nbac.PropsAV.String() != "AV" {
		t.Error("Props rendering broken")
	}
}
