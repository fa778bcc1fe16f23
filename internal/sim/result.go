package sim

import (
	"fmt"
	"strings"

	"atomiccommit/internal/core"
	"atomiccommit/internal/nbac"
)

// Result is the complete measurement of one execution. The NBAC
// property predicates (Agreement, Validity, Termination, execution
// class) live on the embedded nbac.Execution — the exact code the live
// auditor runs against real executions — while the fields and methods
// below measure what only the deterministic simulator can see: virtual
// time, causal depth, and message counts.
type Result struct {
	nbac.Execution

	F int
	U core.Ticks

	// DecisionTick and DecisionDepth record when (virtual time) and at
	// which causal message-chain depth each decided process decided.
	DecisionTick  map[core.ProcessID]core.Ticks
	DecisionDepth map[core.ProcessID]int

	// LastDecisionTick is the virtual time of the latest decision; it is 0
	// when nobody decided.
	LastDecisionTick core.Ticks
	// MaxDecisionDepth is the largest causal message-chain depth at which
	// any process decided.
	MaxDecisionDepth int

	// MessagesSent counts network messages sent during the whole run
	// (self-addressed messages excluded, paper footnote 10). SentByPath
	// breaks the count down by module instance ("" is the commit protocol
	// itself; "iuc" is e.g. INBAC's underlying consensus).
	MessagesSent int
	SentByPath   map[string]int

	// MessagesToDecide counts network messages that arrived at or before
	// LastDecisionTick. This is the paper's counting: the messages an
	// execution needs for every process to decide (e.g. 1NBAC's final
	// helping broadcast is sent at decision time, arrives afterwards, and
	// is not part of the n^2-n bound).
	MessagesToDecide int
}

// DelayUnits returns the paper's "number of message delays" of the
// execution: the virtual time of the last decision divided by U. It is only
// meaningful for executions where every message takes exactly U (the nice
// executions the complexity tables are about); the division is then exact.
func (r *Result) DelayUnits() int {
	if r.LastDecisionTick == 0 {
		return 0
	}
	return int((r.LastDecisionTick + r.U - 1) / r.U)
}

// ConsensusMessages returns the number of messages sent by sub-modules
// (everything that is not the root protocol instance).
func (r *Result) ConsensusMessages() int {
	n := 0
	for path, c := range r.SentByPath {
		if path != "" {
			n += c
		}
	}
	return n
}

// String summarizes the result on one line (handy in test failures).
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d f=%d msgs=%d(toDecide=%d) delays=%d depth=%d",
		r.N, r.F, r.MessagesSent, r.MessagesToDecide, r.DelayUnits(), r.MaxDecisionDepth)
	if v, ok := r.Decision(); ok && r.AllCorrectDecided() {
		fmt.Fprintf(&b, " decided=%v", v)
	} else {
		fmt.Fprintf(&b, " decisions=%d/%d", len(r.Decisions), r.N)
	}
	if r.AnyCrash {
		fmt.Fprintf(&b, " crashes=%d", len(r.Crashed))
	}
	if r.NetworkFailure {
		b.WriteString(" netfail")
	}
	if r.HorizonReached {
		b.WriteString(" HORIZON")
	}
	if len(r.Violations) > 0 {
		fmt.Fprintf(&b, " VIOLATIONS=%v", r.Violations)
	}
	return b.String()
}
