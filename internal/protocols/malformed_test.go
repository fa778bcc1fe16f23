package protocols

import (
	"fmt"
	"sort"
	"testing"

	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/protocols/paxoscommit"
)

// probeEnv is a bare core.Env for one module: it counts sends and decisions
// and remembers armed timers so the test can fire them.
type probeEnv struct {
	id        core.ProcessID
	n, f      int
	sends     int
	decisions []core.Value
	timers    []probeTimer
}

type probeTimer struct {
	at  core.Ticks
	tag int
}

func (e *probeEnv) ID() core.ProcessID                             { return e.id }
func (e *probeEnv) N() int                                         { return e.n }
func (e *probeEnv) F() int                                         { return e.f }
func (e *probeEnv) U() core.Ticks                                  { return 4 }
func (e *probeEnv) Now() core.Ticks                                { return 0 }
func (e *probeEnv) Send(core.ProcessID, core.Message)              { e.sends++ }
func (e *probeEnv) SetTimerAt(t core.Ticks, tag int)               { e.timers = append(e.timers, probeTimer{t, tag}) }
func (e *probeEnv) Decide(v core.Value)                            { e.decisions = append(e.decisions, v) }
func (e *probeEnv) Register(string, core.Module, func(core.Value)) {}

// TestMalformedMessagesAreDropped delivers, to an initialised module that has
// proposed, messages a peer configured with a different n (or a corrupt frame
// that still parses) could send: an instance number outside 1..n, a bundle or
// a view that is not n entries long. None may panic, send or decide at
// delivery, and none may have been counted when the timers due within 2U
// fire. The process under test is Pn: with f=2 it is not a fast acceptor and
// leads no recovery round before 2U, so nothing it sends or decides by then
// is legitimate (Flooding runs f+1 = 3 rounds and decides at 3U).
func TestMalformedMessagesAreDropped(t *testing.T) {
	const n, f = 5, 2
	faster := func() core.Module { return paxoscommit.New(paxoscommit.Options{Mode: paxoscommit.Faster})(n) }
	flooding := func() core.Module { return consensus.NewFlooding() }
	allKnown := func(k int) []uint8 { return make([]uint8, k) } // k votes of 0, none unknown

	type tcase struct {
		name string
		mod  func() core.Module
		msg  core.Message
	}
	var cases []tcase
	add := func(name string, mod func() core.Module, msg core.Message) {
		cases = append(cases, tcase{name, mod, msg})
	}
	for _, inst := range []int{0, n + 1, 1 << 40} {
		add(fmt.Sprintf("vote2a inst=%d", inst), faster, paxoscommit.MsgVote2a{Inst: inst, V: core.Commit})
		add(fmt.Sprintf("prepare inst=%d", inst), faster, paxoscommit.MsgPrepareI{Inst: inst, B: 1})
		add(fmt.Sprintf("promise inst=%d", inst), faster, paxoscommit.MsgPromiseI{Inst: inst, B: 1, AccB: -1})
		add(fmt.Sprintf("accept inst=%d", inst), faster, paxoscommit.MsgAcceptI{Inst: inst, B: 1, V: core.Commit})
		add(fmt.Sprintf("accepted inst=%d", inst), faster, paxoscommit.MsgAcceptedI{Inst: inst, B: 1, V: core.Commit})
	}
	add("bundle empty", faster, paxoscommit.MsgBundle{})
	add("bundle short", faster, paxoscommit.MsgBundle{Views: allKnown(n - 1)})
	add("bundle long", faster, paxoscommit.MsgBundle{Views: allKnown(n + 1)})
	add("flood view long", flooding, consensus.MsgFlood{Round: 1, View: allKnown(n + 3)})
	add("flood view short", flooding, consensus.MsgFlood{Round: 1, View: allKnown(n - 1)})
	add("flood view empty", flooding, consensus.MsgFlood{Round: 1})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			env := &probeEnv{id: n, n: n, f: f}
			m := tc.mod()
			m.Init(env)
			m.Propose(core.Commit)
			sends := env.sends
			// From every process, so that a counted message would reach any
			// quorum.
			for from := core.ProcessID(1); from <= n; from++ {
				m.Deliver(from, tc.msg)
			}
			if env.sends != sends || len(env.decisions) != 0 {
				t.Fatalf("delivery caused %d sends and decisions %v", env.sends-sends, env.decisions)
			}
			timers := append([]probeTimer(nil), env.timers...)
			sort.SliceStable(timers, func(i, j int) bool { return timers[i].at < timers[j].at })
			for _, tm := range timers {
				if tm.at <= 2*env.U() {
					m.Timeout(tm.tag)
				}
			}
			if len(env.decisions) != 0 {
				t.Fatalf("decided %v from malformed input", env.decisions)
			}
		})
	}
}
