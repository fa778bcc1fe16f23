// Package protocols registers every commit protocol in this repository
// together with its robustness contract (its cell in the paper's Table 1),
// the paper's closed-form nice-execution complexity and its wire message
// types, so that the test matrix, the benchmark harness and the live
// runtime's codec can take the whole suite uniformly.
//
// Adding a protocol is a package under this directory (a core.Module built
// from the internal/core kit, its messages in a fresh wire ID block listed in
// internal/live/wire.go), one Info entry below, and a row in DESIGN.md's
// protocol table. Nothing else names protocols one by one.
package protocols

import (
	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/protocols/anbac"
	"atomiccommit/internal/protocols/avnbac"
	"atomiccommit/internal/protocols/chainnbac"
	"atomiccommit/internal/protocols/fullnbac"
	"atomiccommit/internal/protocols/hubnbac"
	"atomiccommit/internal/protocols/inbac"
	"atomiccommit/internal/protocols/onenbac"
	"atomiccommit/internal/protocols/paxoscommit"
	"atomiccommit/internal/protocols/threepc"
	"atomiccommit/internal/protocols/twopc"
	"atomiccommit/internal/protocols/zeronbac"
)

// Formula is a closed-form complexity in n and f. A nil Formula means the
// paper makes no claim for that metric.
type Formula func(n, f int) int

// Info describes one protocol.
type Info struct {
	// Name is the identifier used by tests, benches and the CLI.
	Name string
	// Paper is the protocol's name in the paper.
	Paper string
	// Contract is the protocol's (CF, NF) property cell.
	Contract nbac.Contract
	// New builds a fresh per-process module factory.
	New func() func(core.ProcessID) core.Module

	// PaperDelays / PaperMessages are the paper's nice-execution bounds
	// (Tables 1-5).
	PaperDelays   Formula
	PaperMessages Formula

	// Delays / Messages are the values this implementation measures in a
	// nice execution under this repository's timer convention (tick 0 =
	// Propose). They differ from the paper's only by documented constants
	// (see DESIGN.md, "Measurement conventions").
	Delays   Formula
	Messages Formula

	// MinN is the smallest n the protocol supports (given f >= 1).
	MinN int
	// UsesConsensus marks protocols whose nice executions must stay
	// consensus-silent (asserted by tests).
	UsesConsensus bool

	// Wires is one prototype of every message type the protocol's package
	// puts on the wire (internal/consensus's, used by several, are listed
	// there). The commit package registers them with the live runtime.
	Wires []core.Wire
}

func c(k int) Formula { return func(n, f int) int { return k } }

// avnbac and paxoscommit each register two variants over one message set.
var (
	avnbacWires = []core.Wire{avnbac.MsgV{}, avnbac.MsgB{}}
	paxosWires  = []core.Wire{
		paxoscommit.MsgVote2a{}, paxoscommit.MsgBundle{}, paxoscommit.MsgOutcome{}, paxoscommit.MsgPrepareI{},
		paxoscommit.MsgPromiseI{}, paxoscommit.MsgAcceptI{}, paxoscommit.MsgAcceptedI{},
	}
)

// All returns every registered protocol, in a stable order. The slice is
// shared: callers must not modify it.
func All() []Info { return all }

var all = []Info{
	{
		Name: "inbac", Paper: "INBAC (section 5, appendix A)",
		Contract:    nbac.Contract{Name: "inbac", CF: nbac.PropsAVT, NF: nbac.PropsAVT, MajorityForT: true},
		New:         func() func(core.ProcessID) core.Module { return inbac.New(inbac.Options{}) },
		PaperDelays: c(2), PaperMessages: func(n, f int) int { return 2 * f * n },
		Delays: c(2), Messages: func(n, f int) int { return 2 * f * n },
		MinN: 2, UsesConsensus: true,
		Wires: []core.Wire{inbac.MsgV{}, inbac.MsgC{}, inbac.MsgHelp{}, inbac.MsgHelped{}, inbac.MsgA{}},
	},
	{
		Name: "1nbac", Paper: "1NBAC (appendix D)",
		Contract:    nbac.Contract{Name: "1nbac", CF: nbac.PropsAVT, NF: nbac.PropsVT},
		New:         func() func(core.ProcessID) core.Module { return onenbac.New() },
		PaperDelays: c(1), PaperMessages: func(n, f int) int { return n*n - n },
		Delays: c(1), Messages: func(n, f int) int { return n*n - n },
		MinN: 2, UsesConsensus: true,
		Wires: []core.Wire{onenbac.MsgV{}, onenbac.MsgD{}},
	},
	{
		Name: "avnbac-delay", Paper: "avNBAC, delay-optimal variant (section 4.1)",
		Contract:    nbac.Contract{Name: "avnbac-delay", CF: nbac.PropsAV, NF: nbac.PropsAV},
		New:         func() func(core.ProcessID) core.Module { return avnbac.NewDelayOptimal() },
		PaperDelays: c(1), PaperMessages: nil,
		Delays: c(1), Messages: func(n, f int) int { return n*n - n },
		MinN:  2,
		Wires: avnbacWires,
	},
	{
		Name: "avnbac-msg", Paper: "avNBAC, message-optimal variant (appendix E.5)",
		Contract:    nbac.Contract{Name: "avnbac-msg", CF: nbac.PropsAV, NF: nbac.PropsAV},
		New:         func() func(core.ProcessID) core.Module { return avnbac.NewMessageOptimal() },
		PaperDelays: nil, PaperMessages: func(n, f int) int { return 2*n - 2 },
		Delays: c(2), Messages: func(n, f int) int { return 2*n - 2 },
		MinN:  2,
		Wires: avnbacWires,
	},
	{
		Name: "0nbac", Paper: "0NBAC (appendix E.1)",
		Contract:    nbac.Contract{Name: "0nbac", CF: nbac.PropsAT, NF: nbac.PropsAT, MajorityForT: true},
		New:         func() func(core.ProcessID) core.Module { return zeronbac.New() },
		PaperDelays: c(1), PaperMessages: c(0),
		Delays: c(1), Messages: c(0),
		MinN: 2, UsesConsensus: true,
		Wires: []core.Wire{zeronbac.MsgV{}, zeronbac.MsgB{}, zeronbac.MsgAck{}},
	},
	{
		Name: "anbac", Paper: "aNBAC (appendix E.3)",
		Contract:    nbac.Contract{Name: "anbac", CF: nbac.PropsAV, NF: nbac.PropA},
		New:         func() func(core.ProcessID) core.Module { return anbac.New() },
		PaperDelays: nil, PaperMessages: func(n, f int) int { return n - 1 + f },
		Delays: func(n, f int) int { return n + 2*f }, Messages: func(n, f int) int { return n - 1 + f },
		MinN:  3,
		Wires: []core.Wire{chainnbac.MsgVal{}, anbac.MsgV0{}, anbac.MsgB0{}, anbac.MsgAck{}},
	},
	{
		Name: "chainnbac", Paper: "(n-1+f)NBAC (appendix E.2)",
		Contract:    nbac.Contract{Name: "chainnbac", CF: nbac.PropsAVT, NF: nbac.PropT},
		New:         func() func(core.ProcessID) core.Module { return chainnbac.New() },
		PaperDelays: func(n, f int) int { return 2*f + n - 1 }, PaperMessages: func(n, f int) int { return n - 1 + f },
		Delays: func(n, f int) int { return n + 2*f }, Messages: func(n, f int) int { return n - 1 + f },
		MinN:  3,
		Wires: []core.Wire{chainnbac.MsgVal{}},
	},
	{
		Name: "hubnbac", Paper: "(2n-2)NBAC (appendix E.4)",
		Contract:    nbac.Contract{Name: "hubnbac", CF: nbac.PropsAVT, NF: nbac.PropsVT},
		New:         func() func(core.ProcessID) core.Module { return hubnbac.New() },
		PaperDelays: nil, PaperMessages: func(n, f int) int { return 2*n - 2 },
		Delays: func(n, f int) int { return 2 + f }, Messages: func(n, f int) int { return 2*n - 2 },
		MinN:  2,
		Wires: []core.Wire{hubnbac.MsgV{}, hubnbac.MsgB{}},
	},
	{
		Name: "fullnbac", Paper: "(2n-2+f)NBAC (appendix E.6)",
		Contract:    nbac.Contract{Name: "fullnbac", CF: nbac.PropsAVT, NF: nbac.PropsAVT, MajorityForT: true},
		New:         func() func(core.ProcessID) core.Module { return fullnbac.New() },
		PaperDelays: nil, PaperMessages: func(n, f int) int { return 2*n - 2 + f },
		Delays: func(n, f int) int { return 2*n + f - 2 }, Messages: func(n, f int) int { return 2*n - 2 + f },
		MinN: 3, UsesConsensus: true,
		Wires: []core.Wire{fullnbac.MsgV{}, fullnbac.MsgB{}, fullnbac.MsgZ{}, fullnbac.MsgHelp{}, fullnbac.MsgHelped{}},
	},
	{
		Name: "2pc", Paper: "2PC (Gray 1978; Table 5)",
		Contract:    nbac.Contract{Name: "2pc", CF: nbac.PropsAV, NF: nbac.PropsAV},
		New:         func() func(core.ProcessID) core.Module { return twopc.New() },
		PaperDelays: c(2), PaperMessages: func(n, f int) int { return 2*n - 2 },
		Delays: c(2), Messages: func(n, f int) int { return 2*n - 2 },
		MinN:  2,
		Wires: []core.Wire{twopc.MsgVote{}, twopc.MsgOutcome{}},
	},
	{
		Name: "3pc", Paper: "3PC (Skeen 1981; section 6.2)",
		Contract:    nbac.Contract{Name: "3pc", CF: nbac.PropsAVT, NF: nbac.PropsVT},
		New:         func() func(core.ProcessID) core.Module { return threepc.New() },
		PaperDelays: nil, PaperMessages: nil,
		Delays: c(4), Messages: func(n, f int) int { return 4*n - 4 },
		MinN:  2,
		Wires: []core.Wire{threepc.MsgVote{}, threepc.MsgPrecommit{}, threepc.MsgAck{}, threepc.MsgOutcome{}, threepc.MsgState{}},
	},
	{
		Name: "paxoscommit", Paper: "PaxosCommit (Gray & Lamport 2006; Table 5)",
		Contract: nbac.Contract{Name: "paxoscommit", CF: nbac.PropsAVT, NF: nbac.PropsAVT, MajorityForT: true},
		New: func() func(core.ProcessID) core.Module {
			return paxoscommit.New(paxoscommit.Options{Mode: paxoscommit.Classic})
		},
		PaperDelays: c(3), PaperMessages: func(n, f int) int { return n*f + 2*n - 2 },
		Delays: c(3), Messages: func(n, f int) int { return n*f + 2*n - 2 },
		MinN:  2,
		Wires: paxosWires,
	},
	{
		Name: "fasterpaxoscommit", Paper: "Faster PaxosCommit (Gray & Lamport 2006; Table 5)",
		Contract: nbac.Contract{Name: "fasterpaxoscommit", CF: nbac.PropsAVT, NF: nbac.PropsAVT, MajorityForT: true},
		New: func() func(core.ProcessID) core.Module {
			return paxoscommit.New(paxoscommit.Options{Mode: paxoscommit.Faster})
		},
		PaperDelays: c(2), PaperMessages: func(n, f int) int { return 2*f*n + 2*n - 2*f - 2 },
		Delays: c(2), Messages: func(n, f int) int { return 2*f*n + 2*n - 2*f - 2 },
		MinN:  2,
		Wires: paxosWires,
	},
}

// ByName returns the protocol registered under name.
func ByName(name string) (Info, bool) {
	for _, p := range all {
		if p.Name == name {
			return p, true
		}
	}
	return Info{}, false
}
