package protocols

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/sched"
	"atomiccommit/internal/sim"
)

// nfPairs is the (n, f) sweep used across the matrix.
var nfPairs = [][2]int{
	{2, 1}, {3, 1}, {3, 2}, {4, 1}, {4, 2}, {4, 3},
	{5, 1}, {5, 2}, {5, 4}, {7, 3}, {8, 1}, {8, 7}, {9, 4}, {12, 5},
}

func pairsFor(p Info) [][2]int {
	var out [][2]int
	for _, nf := range nfPairs {
		if nf[0] >= p.MinN {
			out = append(out, nf)
		}
	}
	return out
}

// TestNiceExecutionComplexity is the heart of the reproduction: for every
// protocol and every (n, f), a nice execution must decide commit everywhere
// and hit the implementation's closed-form message and delay counts exactly
// (which coincide with the paper's bounds up to the documented timer-start
// constants).
func TestNiceExecutionComplexity(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, nf := range pairsFor(p) {
				n, f := nf[0], nf[1]
				r := sim.Run(sim.Config{N: n, F: f, New: p.New()})
				if !r.Nice() || !r.SolvesNBAC() {
					t.Fatalf("n=%d f=%d: nice execution must solve NBAC: %v", n, f, r)
				}
				if v, _ := r.Decision(); v != core.Commit {
					t.Fatalf("n=%d f=%d: nice execution must commit: %v", n, f, r)
				}
				if want := p.Messages(n, f); r.MessagesToDecide != want {
					t.Errorf("n=%d f=%d: messages-to-decide = %d, want %d (%v)", n, f, r.MessagesToDecide, want, r)
				}
				if want := p.Delays(n, f); r.DelayUnits() != want {
					t.Errorf("n=%d f=%d: delays = %d, want %d (%v)", n, f, r.DelayUnits(), want, r)
				}
				if p.UsesConsensus && r.ConsensusMessages() != 0 {
					t.Errorf("n=%d f=%d: nice execution must not touch consensus, sent %d messages", n, f, r.ConsensusMessages())
				}
			}
		})
	}
}

// TestFailureFreeAbort: failure-free executions with at least one 0 vote
// must solve NBAC with decision abort (validity, both directions).
func TestFailureFreeAbort(t *testing.T) {
	voteSets := func(n int) [][]core.Value {
		single := make([]core.Value, n)
		all := make([]core.Value, n)
		last := make([]core.Value, n)
		for i := range single {
			single[i], all[i], last[i] = core.Commit, core.Abort, core.Commit
		}
		single[0] = core.Abort
		last[n-1] = core.Abort
		return [][]core.Value{single, all, last}
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, nf := range pairsFor(p) {
				n, f := nf[0], nf[1]
				for vi, votes := range voteSets(n) {
					r := sim.Run(sim.Config{N: n, F: f, Votes: votes, New: p.New()})
					if !r.SolvesNBAC() {
						t.Fatalf("n=%d f=%d votes#%d: failure-free execution must solve NBAC: %v", n, f, vi, r)
					}
					if v, _ := r.Decision(); v != core.Abort {
						t.Fatalf("n=%d f=%d votes#%d: must abort: %v", n, f, vi, r)
					}
				}
			}
		})
	}
}

// crashSchedules builds a set of adversarial crash-failure schedules for a
// given (n, f): early crashes, mid-protocol crashes, and partial-broadcast
// crashes of the structurally important processes.
func crashSchedules(n, f int, u core.Ticks) []sim.Policy {
	var out []sim.Policy
	add := func(p sim.Policy) { out = append(out, p) }

	add(sched.CrashAtStart(1))                 // first backup / coordinator / chain head
	add(sched.CrashAtStart(core.ProcessID(n))) // hub / chain tail
	if f >= 2 {
		ids := make([]core.ProcessID, f)
		for i := range ids {
			ids[i] = core.ProcessID(i + 1)
		}
		add(sched.CrashAtStart(ids...)) // every backup gone
	}
	add(sched.Crashes(map[core.ProcessID]core.Ticks{1: u})) // P1 dies after the first round of sends
	add(sched.Crashes(map[core.ProcessID]core.Ticks{core.ProcessID(n): 2 * u}))
	// Partial broadcasts: P1 crashes mid-multicast right after proposing,
	// and again at its second send wave.
	half := make([]core.ProcessID, 0, n/2)
	for q := n/2 + 1; q <= n; q++ {
		half = append(half, core.ProcessID(q))
	}
	add(sched.PartialBroadcast(1, 0, half...))
	add(sched.PartialBroadcast(1, u, half...))
	if n >= 3 {
		add(sched.PartialBroadcast(core.ProcessID(n), u, 2, 3))
	}
	return out
}

// TestCrashFailureContracts runs every protocol against the crash
// adversaries and asserts its declared CF properties.
func TestCrashFailureContracts(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, nf := range pairsFor(p) {
				n, f := nf[0], nf[1]
				for si, pol := range crashSchedules(n, f, sim.DefaultU) {
					for _, votes := range [][]core.Value{nil, mixedVotes(n)} {
						r := sim.Run(sim.Config{N: n, F: f, Votes: votes, New: p.New(), Policy: pol})
						if r.Class() == nbac.NetworkFailure {
							continue // partial broadcast of a non-crashed sender; skip
						}
						if len(r.Crashed) > f {
							continue // schedule exceeds the resilience bound
						}
						if bad := nbac.Check(p.Contract, &r.Execution); len(bad) != 0 {
							t.Fatalf("n=%d f=%d schedule#%d votes=%v: %v\n%v", n, f, si, votes, bad, r)
						}
					}
				}
			}
		})
	}
}

func mixedVotes(n int) []core.Value {
	votes := make([]core.Value, n)
	for i := range votes {
		votes[i] = core.Commit
	}
	votes[n/2] = core.Abort
	return votes
}

// netSchedules builds network-failure schedules: global slow start (GST),
// and targeted link delays around the structurally important processes.
func netSchedules(n, f int, u core.Ticks) []sim.Policy {
	return []sim.Policy{
		sched.GST(u, 8*u, 3*u),
		sched.GST(u, 30*u, 6*u),
		sched.DelayLinks(u, 5*u, [2]core.ProcessID{1, core.ProcessID(n)}),
		sched.DelayFrom(u, 1, 10*u),
		sched.DelayFrom(u, core.ProcessID(n), 10*u),
		sched.Merge(
			sched.DelayFrom(u, 1, 8*u),
			sched.Crashes(map[core.ProcessID]core.Ticks{core.ProcessID(n): 2 * u}),
		),
	}
}

// TestNetworkFailureContracts runs every protocol against eventually
// synchronous adversaries and asserts its declared NF properties.
func TestNetworkFailureContracts(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for _, nf := range pairsFor(p) {
				n, f := nf[0], nf[1]
				for si, pol := range netSchedules(n, f, sim.DefaultU) {
					for _, votes := range [][]core.Value{nil, mixedVotes(n)} {
						r := sim.Run(sim.Config{N: n, F: f, Votes: votes, New: p.New(), Policy: pol})
						if len(r.Crashed) > f {
							continue
						}
						if bad := nbac.Check(p.Contract, &r.Execution); len(bad) != 0 {
							t.Fatalf("n=%d f=%d schedule#%d votes=%v: %v\n%v", n, f, si, votes, bad, r)
						}
					}
				}
			}
		})
	}
}

// TestRandomSchedules is the fuzz matrix: random votes, random crashes
// within the resilience bound, random pre-GST delays. Every protocol must
// honor its contract on every draw.
func TestRandomSchedules(t *testing.T) {
	const trials = 120
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < trials; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := p.MinN + rng.Intn(6)
				f := 1 + rng.Intn(n-1)
				votes := make([]core.Value, n)
				for i := range votes {
					votes[i] = core.Value(rng.Intn(2))
				}
				pol := sched.Random(rng, sched.RandomOpts{
					N: n, F: f, U: sim.DefaultU,
					Crashes:     seed%3 != 0,
					NetFailures: seed%2 == 0,
				})
				r := sim.Run(sim.Config{N: n, F: f, Votes: votes, New: p.New(), Policy: pol})
				if len(r.Crashed) > f {
					continue
				}
				if bad := nbac.Check(p.Contract, &r.Execution); len(bad) != 0 {
					t.Fatalf("seed %d (n=%d f=%d votes=%v): %v\n%v", seed, n, f, votes, bad, r)
				}
			}
		})
	}
}

// TestRegistrySanity pins basic registry invariants.
func TestRegistrySanity(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range All() {
		if seen[p.Name] {
			t.Errorf("duplicate protocol name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Delays == nil || p.Messages == nil {
			t.Errorf("%s: measured formulas are required", p.Name)
		}
		if _, ok := ByName(p.Name); !ok {
			t.Errorf("ByName(%q) failed", p.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
	if len(All()) != 13 {
		t.Errorf("expected 13 protocols, got %d", len(All()))
	}

	// Wire prototypes: every ID unique per type, inside the block
	// internal/live/wire.go documents for the type's package, and the whole
	// set exactly the IDs shipped so far (a shipped ID is never reused or
	// renumbered; 24, twopc's retired MsgReq, is the gap in its block). That
	// commit.init registers every one of them is asserted next to it, in
	// commit/wire_test.go: this package cannot import commit.
	blocks := wireBlocks(t)
	ids := make(map[uint16]string)
	wires := append([]core.Wire(nil), consensus.Wires...)
	for _, p := range All() {
		if len(p.Wires) == 0 {
			t.Errorf("%s: no wire prototypes", p.Name)
		}
		wires = append(wires, p.Wires...)
	}
	for _, w := range wires {
		typ := reflect.TypeOf(w)
		if prev, ok := ids[w.WireID()]; ok && prev != typ.String() {
			t.Errorf("wire ID %d claimed by both %s and %s", w.WireID(), prev, typ)
		}
		ids[w.WireID()] = typ.String()
		pkg := strings.TrimPrefix(typ.PkgPath(), "atomiccommit/internal/")
		if b, ok := blocks[pkg]; !ok {
			t.Errorf("%s: internal/live/wire.go documents no ID block for %s", typ, pkg)
		} else if w.WireID() < b[0] || w.WireID() > b[1] {
			t.Errorf("%s: ID %d outside the documented block %d..%d", typ, w.WireID(), b[0], b[1])
		}
	}
	shipped := [][2]uint16{{8, 14}, {16, 20}, {25, 26}, {28, 32}, {36, 42}, {46, 47}, {50, 51}, {54, 56}, {60, 60}, {63, 65}, {68, 69}, {72, 76}}
	count := 0
	for _, r := range shipped {
		for id := r[0]; id <= r[1]; id++ {
			count++
			if _, ok := ids[id]; !ok {
				t.Errorf("shipped wire ID %d is no longer listed", id)
			}
		}
	}
	if len(ids) != count {
		t.Errorf("%d wire IDs listed, %d shipped: a new message type extends the shipped list here", len(ids), count)
	}
}

// wireBlocks reads the per-package ID blocks out of the registry comment in
// internal/live/wire.go ("16..20   protocols/inbac"), keyed by the package
// path below internal/.
func wireBlocks(t *testing.T) map[string][2]uint16 {
	src, err := os.ReadFile("../live/wire.go")
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string][2]uint16)
	for _, m := range regexp.MustCompile(`(?m)^//\s+(\d+)(?:\.\.(\d+))?\s+(?:internal/)?((?:protocols/)?\w+)`).FindAllStringSubmatch(string(src), -1) {
		lo, _ := strconv.Atoi(m[1])
		hi := lo
		if m[2] != "" {
			hi, _ = strconv.Atoi(m[2])
		}
		blocks[m[3]] = [2]uint16{uint16(lo), uint16(hi)}
	}
	return blocks
}

// TestTable5FormulasAtF1 pins the paper's f=1 comparison (section 1.3): 2PC
// uses 2n-2 messages, INBAC 2n — "almost as efficient as 2PC" while being
// indulgent.
func TestTable5FormulasAtF1(t *testing.T) {
	twoPC, _ := ByName("2pc")
	in, _ := ByName("inbac")
	for n := 2; n <= 16; n++ {
		if got, want := in.Messages(n, 1), 2*n; got != want {
			t.Errorf("INBAC messages(n=%d, f=1) = %d, want %d", n, got, want)
		}
		if got, want := twoPC.Messages(n, 1), 2*n-2; got != want {
			t.Errorf("2PC messages(n=%d, f=1) = %d, want %d", n, got, want)
		}
		if in.Messages(n, 1)-twoPC.Messages(n, 1) != 2 {
			t.Errorf("n=%d: INBAC should cost exactly 2 more messages than 2PC at f=1", n)
		}
	}
}

func ExampleAll() {
	for _, p := range All() {
		fmt.Println(p.Name)
	}
	// Output:
	// inbac
	// 1nbac
	// avnbac-delay
	// avnbac-msg
	// 0nbac
	// anbac
	// chainnbac
	// hubnbac
	// fullnbac
	// 2pc
	// 3pc
	// paxoscommit
	// fasterpaxoscommit
}
