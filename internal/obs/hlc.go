package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// HLC is a hybrid logical clock timestamp packed into one uint64:
// the high 48 bits are the physical component (Unix nanoseconds with
// the low 16 bits truncated, i.e. ~65.5µs granularity — fine enough to
// compare against millisecond-scale delay bounds, coarse enough to
// leave room for the logical counter until far past year 2500), the
// low 16 bits are the logical counter that breaks ties within one
// physical granule while preserving happens-before.
//
// HLCs compare correctly as plain uint64s: if event a happens-before
// event b (same process, or a message from a's process to b's), then
// a.HLC < b.HLC. The converse does not hold — concurrent events are
// still totally ordered, just arbitrarily.
type HLC uint64

// hlcLogicalBits is the width of the logical counter; the physical
// component is unix-nanos with this many low bits zeroed.
const hlcLogicalBits = 16

// hlcLogicalMask masks the logical counter out of a packed HLC.
const hlcLogicalMask = (1 << hlcLogicalBits) - 1

// Physical is the wall-clock component as Unix nanoseconds (truncated
// to the clock's ~65.5µs granularity).
func (h HLC) Physical() int64 { return int64(uint64(h) &^ hlcLogicalMask) }

// Logical is the tie-breaking counter within one physical granule.
func (h HLC) Logical() uint16 { return uint16(h & hlcLogicalMask) }

// Time is the physical component as a time.Time.
func (h HLC) Time() time.Time { return time.Unix(0, h.Physical()) }

// Sub is the physical-time distance h−o. Logical counters are ignored:
// two HLCs in the same granule are "simultaneous" at clock resolution.
func (h HLC) Sub(o HLC) time.Duration {
	return time.Duration(h.Physical() - o.Physical())
}

// String renders the HLC as <physical-unix-nanos>+<logical>.
func (h HLC) String() string {
	return fmt.Sprintf("%d+%d", h.Physical(), h.Logical())
}

// Clock is a lock-free hybrid logical clock. Tick and Observe are
// single-CAS-loop operations with no allocation, cheap enough to stamp
// every envelope on the steady-state send path.
type Clock struct {
	last atomic.Uint64
}

// hlcPhysNow is the current wall clock truncated to HLC granularity.
func hlcPhysNow() uint64 {
	return uint64(time.Now().UnixNano()) &^ hlcLogicalMask
}

// Tick advances the clock for a local or send event and returns the new
// timestamp: max(wall, last)+1 in HLC arithmetic, so successive ticks
// on one clock are strictly increasing even within a physical granule.
func (c *Clock) Tick() HLC {
	phys := hlcPhysNow()
	for {
		last := c.last.Load()
		next := phys
		if next <= last {
			next = last + 1
		}
		if c.last.CompareAndSwap(last, next) {
			return HLC(next)
		}
	}
}

// Observe merges a remote timestamp into the clock on message receipt
// and returns the new local timestamp, which is strictly greater than
// both the remote stamp and every earlier local tick — the textbook HLC
// receive rule that makes cross-process timestamps respect causality.
func (c *Clock) Observe(remote HLC) HLC {
	phys := hlcPhysNow()
	for {
		last := c.last.Load()
		next := phys
		if next <= last {
			next = last + 1
		}
		if r := uint64(remote) + 1; next < r {
			next = r
		}
		if c.last.CompareAndSwap(last, next) {
			return HLC(next)
		}
	}
}

// Now is the clock's latest issued timestamp without advancing it
// (0 if the clock has never ticked).
func (c *Clock) Now() HLC { return HLC(c.last.Load()) }

// ProcessClock is the address-space-wide hybrid logical clock. While
// the flight recorder or an auditor is on, every transport stamps
// outgoing envelopes from it (SendStamp) and merges incoming non-zero
// stamps into it, and the flight recorder stamps every event from it —
// one clock per address space means colocated participants (mesh
// runtime, Cluster) get a total order consistent with happens-before,
// while cross-process deployments (TCP runtime) get the standard HLC
// guarantee via the envelope stamp. Nobody reads the clock of a process
// nothing observes: its envelopes carry stamp 0, so a dump taken where
// they arrive records no causal edge back to their sends.
var ProcessClock Clock

// SendStamp is the stamp for an envelope sent now: a tick of ProcessClock
// while the flight recorder or an auditor is on, else 0 — nothing would
// read it, and the clock read is the stamp's whole cost.
func SendStamp() HLC {
	if Default.Enabled() || ActiveAuditor() != nil {
		return ProcessClock.Tick()
	}
	return 0
}
