package consensus_test

import (
	"testing"

	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/protocols/fullnbac"
	"atomiccommit/internal/protocols/inbac"
	"atomiccommit/internal/protocols/onenbac"
	"atomiccommit/internal/protocols/zeronbac"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

// TestNiceExecutionBuildsNoConsensus: the four protocols that fall back on
// consensus build no consensus module in a nice execution, and build one in
// an execution that takes a consensus branch, which still decides.
func TestNiceExecutionBuildsNoConsensus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		new    func(core.ProcessID) core.Module
		branch sim.Config // an execution that takes a consensus branch
	}{
		// A backup crashes before acknowledging: cons-propose AND.
		{"inbac", inbac.New(inbac.Options{}), sim.Config{N: 5, F: 2,
			Policy: sched.Crashes(map[core.ProcessID]core.Ticks{1: sim.DefaultU})}},
		// Votes missing at U and no [D, d] by 2U: propose to flooding.
		{"1nbac", onenbac.New(), sim.Config{N: 5, F: 4, Policy: sched.CrashAtStart(2, 3, 4, 5)}},
		// A 0 vote breaks the silence: the acknowledgements go to consensus.
		{"0nbac", zeronbac.New(), sim.Config{N: 4, F: 1, Votes: []core.Value{1, 0, 1, 1}}},
		// A crash breaks the ring.
		{"fullnbac", fullnbac.New(), sim.Config{N: 5, F: 2, Policy: sched.CrashAtStart(3)}},
	} {
		before := consensus.Builds()
		r := sim.Run(sim.Config{N: 4, F: 1, New: tc.new})
		if !r.SolvesNBAC() {
			t.Fatalf("%s: nice run: %v", tc.name, r)
		}
		if b := consensus.Builds() - before; b != 0 {
			t.Errorf("%s: a nice run built %d consensus modules, want 0", tc.name, b)
		}

		before = consensus.Builds()
		cfg := tc.branch
		cfg.New = tc.new
		r = sim.Run(cfg)
		if !r.Agreement() || !r.Termination() {
			t.Fatalf("%s: consensus branch: %v", tc.name, r)
		}
		if r.ConsensusMessages() == 0 {
			t.Fatalf("%s: the run took no consensus branch: %v", tc.name, r)
		}
		if b := consensus.Builds() - before; b < 1 {
			t.Errorf("%s: a consensus branch built %d modules, want at least 1", tc.name, b)
		}
	}
}
