package consensus

import (
	"sync/atomic"

	"atomiccommit/internal/core"
)

// Lazy is the consensus module a parent protocol registers: a value the
// parent embeds, which builds the module New returns (nil: the Paxos module)
// on its first Propose, Deliver or Timeout. A nice execution never proposes
// to consensus, and nobody sends it a consensus message, so it never builds
// one: the fallback costs an instance nothing until a failure needs it.
type Lazy struct {
	New func() core.Module

	env core.Env
	m   core.Module
}

// builds counts the modules every Lazy of the process built, for the tests
// that pin that a nice execution builds none.
var builds atomic.Int64

// Init implements core.Module.
func (l *Lazy) Init(env core.Env) { l.env = env }

// module is the consensus module, built on the first call.
func (l *Lazy) module() core.Module {
	if l.m == nil {
		if l.New != nil {
			l.m = l.New()
		} else {
			l.m = New()
		}
		builds.Add(1)
		l.m.Init(l.env)
	}
	return l.m
}

// Propose, Deliver and Timeout implement core.Module.
func (l *Lazy) Propose(v core.Value)                        { l.module().Propose(v) }
func (l *Lazy) Deliver(from core.ProcessID, m core.Message) { l.module().Deliver(from, m) }
func (l *Lazy) Timeout(tag int)                             { l.module().Timeout(tag) }
