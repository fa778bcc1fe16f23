// Package bench regenerates every table and figure of the paper's
// evaluation from protocol executions on the deterministic simulator. Each
// TableN function returns both structured rows (asserted by tests and
// driven by the root-level benchmarks) and a formatted text rendering
// (printed by cmd/commitbench) that mirrors the paper's layout. Nothing here
// drives the live runtime: TestAuditedLoad (audit_test.go in the module root)
// puts it under audited load, and benchmark/ measures its performance.
package bench

import (
	"fmt"
	"strings"

	"atomiccommit/internal/protocols"
	"atomiccommit/internal/sim"
)

// Measurement is one nice-execution data point of one protocol.
type Measurement struct {
	Protocol string
	N, F     int

	// Measured values (exact, from the simulator).
	Messages int
	Delays   int
	Depth    int // causal message-chain depth at decision

	// Paper values (-1: the paper makes no claim for this metric).
	PaperMessages int
	PaperDelays   int

	// Match reports measured == expected implementation formula; paper
	// deltas from timer-start conventions are reported via PaperDelta*.
	Match bool
}

// PaperDeltaDelays returns measured minus paper delays (0 when they agree
// or the paper is silent).
func (m Measurement) PaperDeltaDelays() int {
	if m.PaperDelays < 0 {
		return 0
	}
	return m.Delays - m.PaperDelays
}

// MeasureNice runs a nice execution of the named protocol and returns the
// measurement. It panics on unknown protocols (callers pass registry names).
func MeasureNice(name string, n, f int) Measurement {
	info, ok := protocols.ByName(name)
	if !ok {
		panic(fmt.Sprintf("bench: unknown protocol %q", name))
	}
	r := sim.Run(sim.Config{N: n, F: f, New: info.New()})
	if !r.SolvesNBAC() {
		panic(fmt.Sprintf("bench: nice execution of %s (n=%d f=%d) failed to solve NBAC: %v", name, n, f, r))
	}
	m := Measurement{
		Protocol: name, N: n, F: f,
		Messages:      r.MessagesToDecide,
		Delays:        r.DelayUnits(),
		Depth:         r.MaxDecisionDepth,
		PaperMessages: -1,
		PaperDelays:   -1,
	}
	if info.PaperMessages != nil {
		m.PaperMessages = info.PaperMessages(n, f)
	}
	if info.PaperDelays != nil {
		m.PaperDelays = info.PaperDelays(n, f)
	}
	m.Match = m.Messages == info.Messages(n, f) && m.Delays == info.Delays(n, f)
	return m
}

// fmtClaim renders "measured (paper: x)" compactly.
func fmtClaim(measured, paper int) string {
	switch {
	case paper < 0:
		return fmt.Sprintf("%d (paper: -)", measured)
	case measured == paper:
		return fmt.Sprintf("%d (= paper)", measured)
	default:
		return fmt.Sprintf("%d (paper: %d)", measured, paper)
	}
}

type table struct {
	b strings.Builder
}

func (t *table) title(s string)                 { fmt.Fprintf(&t.b, "%s\n%s\n", s, strings.Repeat("=", len(s))) }
func (t *table) row(format string, args ...any) { fmt.Fprintf(&t.b, format+"\n", args...) }
func (t *table) blank()                         { t.b.WriteByte('\n') }
func (t *table) String() string                 { return t.b.String() }
