package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/commit"
)

// Run shape. The measured window's length comes from -seconds; everything
// else is fixed so that two commits are always measured the same way.
const (
	warmupE2E    = 3 * time.Second
	warmupTraced = 2 * time.Second
	// bootRepeats: setup_s takes the median boot+pre-dial of this many
	// fleets (the last one is kept and measured), because one boot is a
	// few dozen ms of dial and scheduler noise.
	bootRepeats = 3
	// probeEvery: every n-th committed transfer of a client is followed by
	// a read-your-writes probe.
	probeEvery = 16
)

// winAcc is what one client saw complete inside one window.
type winAcc struct {
	attempts   int // submissions resolved: commit, abort, error or violation
	commits    int // of which the future resolved committed (= operations completed)
	errs       int // attempts ended by a client error or timeout
	violations int // attempts the cluster refused to answer because its members disagreed
	probeFails int // committed transfers whose probe read the pre-image
	abandoned  int // operations given up after maxAttempts
	latMs      []float64
}

func (a *winAcc) merge(b *winAcc) {
	a.attempts += b.attempts
	a.commits += b.commits
	a.errs += b.errs
	a.violations += b.violations
	a.probeFails += b.probeFails
	a.abandoned += b.abandoned
	a.latMs = append(a.latMs, b.latMs...)
}

// runState is shared by the controller and the clients of one run.
type runState struct {
	seed   int64
	f      *fleet
	window atomic.Int32 // index of the open window, -1 between windows
	stop   atomic.Bool
}

// client is one closed-loop caller: it submits a transaction and waits for
// the reply before drawing its next one. What a caller of a commit library
// wants is a committed transaction, so an operation is "get one committed":
// it completes at the first commit and is abandoned — failed — only after
// maxAttempts submissions in a row came back aborted or in error.
type client struct {
	idx      int
	rs       *runState
	gen      *generator
	acc      []winAcc
	seq      int
	transfer int       // committed transfers, for the probe cadence
	replied  time.Time // when the last attempt's reply arrived (before any probe)
	touched  map[string]struct{}
	attempts []attemptRec
}

type attemptResult uint8

const (
	attemptCommitted   attemptResult = iota
	attemptAborted                   // a normal abort
	attemptErr                       // client error or timeout: outcome unknown
	attemptViolation                 // the cluster reported its members disagreeing
	attemptProbeFailed               // committed, but the probe read the pre-image
)

// maxAttempts is when a client gives an operation up: far beyond what
// contention or overload produce, so only a broken system fails operations.
const maxAttempts = 64

func (c *client) loop() {
	streak := 0 // submissions since the last commit
	for !c.rs.stop.Load() {
		spec := c.gen.next()
		start := time.Now()
		res := c.attempt(spec)
		committed := res == attemptCommitted || res == attemptProbeFailed
		if streak++; committed {
			streak = 0
		}
		w := c.rs.window.Load()
		if w < 0 {
			continue
		}
		a := &c.acc[w]
		a.attempts++
		switch res {
		case attemptProbeFailed:
			a.probeFails++
		case attemptErr:
			a.errs++
		case attemptViolation:
			a.violations++
		}
		if committed {
			a.commits++
			a.latMs = append(a.latMs, float64(c.replied.Sub(start))/1e6)
		} else if streak == maxAttempts {
			a.abandoned++
			streak = 0
		}
	}
}

// attempt runs spec once, probe included, and stamps c.replied.
func (c *client) attempt(spec txnSpec) attemptResult {
	if spec.Kind == kindCommit {
		return c.bareCommit()
	}
	return c.kvTxn(spec)
}

func (c *client) bareCommit() attemptResult {
	f := c.rs.f
	c.seq++
	txID := "s" + strconv.FormatInt(c.rs.seed, 10) + "-c" + strconv.Itoa(c.idx) + "-" + strconv.Itoa(c.seq)
	ctx := context.Background()
	traced := f.tr.on()
	var rec attemptRec
	if traced {
		rec = attemptRec{txID: txID, start: f.tr.now()}
		rec.readEnd, rec.submitStart = rec.start, rec.start
	}
	txn := f.submit(ctx, txID)
	if traced {
		rec.submitEnd = f.tr.now()
	}
	ok, err := txn.Wait(ctx)
	c.replied = time.Now()
	if traced {
		rec.end, rec.committed = f.tr.now(), ok && err == nil
		c.attempts = append(c.attempts, rec)
	}
	f.led.reply(txID, replyOf(ok, err), 0)
	switch {
	case errors.Is(err, commit.ErrAgreementViolation):
		return attemptViolation
	case err != nil:
		return attemptErr
	case ok:
		return attemptCommitted
	}
	return attemptAborted
}

func (c *client) kvTxn(spec txnSpec) attemptResult {
	f := c.rs.f
	ctx := context.Background()
	traced := f.tr.on()
	var rec attemptRec
	if traced {
		rec.start = f.tr.now()
	}
	t := f.store.Txn()
	vals, oks, err := t.GetMulti(spec.Keys...)
	if err != nil {
		return attemptErr
	}
	if traced {
		rec.readEnd = f.tr.now()
	}
	if spec.Kind == kindTransfer {
		c.seq++
		tag := strconv.Itoa(c.idx) + "." + strconv.Itoa(c.seq)
		for i, delta := range [2]int64{-int64(spec.Amount), int64(spec.Amount)} {
			bal, err := decodeBalance(vals[i], oks[i])
			if err != nil {
				return attemptErr
			}
			t.Put(spec.Keys[i], encodeBalance(bal+delta, tag))
			c.touched[spec.Keys[i]] = struct{}{}
		}
	}
	if traced {
		rec.submitStart = f.tr.now()
	}
	p, err := t.Submit(ctx)
	if err != nil {
		return attemptErr
	}
	if traced {
		rec.submitEnd = f.tr.now()
	}
	ok, err := p.Wait(ctx)
	c.replied = time.Now()
	if traced {
		rec.txID, rec.end, rec.committed = p.TxID(), f.tr.now(), ok && err == nil
		c.attempts = append(c.attempts, rec)
	}
	f.led.reply(p.TxID(), replyOf(ok, err), spec.Amount)
	switch {
	case err != nil:
		return attemptErr
	case !ok:
		return attemptAborted
	case spec.Kind != kindTransfer:
		return attemptCommitted
	}
	c.transfer++
	if c.transfer%probeEvery != 0 {
		return attemptCommitted
	}
	// Read one written key through the second, cache-less client: the
	// commit reply is in hand, so the pre-image must be gone.
	i := c.seq % 2
	got, present, err := f.probe.Read(spec.Keys[i])
	if err != nil || !present || (oks[i] && got == vals[i]) {
		return attemptProbeFailed
	}
	return attemptCommitted
}

// windowStats is one window's merged client view plus the snapshots at its
// edges.
type windowStats struct {
	acc          winAcc
	open, closed snapshot
}

func (ws *windowStats) seconds() float64 { return ws.closed.at.Sub(ws.open.at).Seconds() }
func (ws *windowStats) goodput() float64 { return ratio(float64(ws.acc.commits), ws.seconds()) }
func (ws *windowStats) cpuUsPerCommit() float64 {
	return ratio(float64((ws.closed.cpu - ws.open.cpu).Microseconds()), float64(ws.acc.commits))
}
func (ws *windowStats) delta(counter string) float64 {
	return float64(ws.closed.counters[counter] - ws.open.counters[counter])
}

// session is a booted fleet with its clients running.
type session struct {
	rs      *runState
	clients []*client
	wg      sync.WaitGroup
	windows []*windowStats
	withMem bool
}

// startSession boots nothing: it starts w.Clients closed-loop clients on an
// already pre-dialled fleet. maxWindows sizes the per-client accumulators.
func startSession(w workload, seed int64, f *fleet, z *zipf, maxWindows int, withMem bool) *session {
	s := &session{rs: &runState{seed: seed, f: f}, withMem: withMem}
	s.rs.window.Store(-1)
	for i := 0; i < w.Clients; i++ {
		c := &client{
			idx: i, rs: s.rs, gen: newGenerator(w.Gen, z, seed, i),
			acc: make([]winAcc, maxWindows), touched: make(map[string]struct{}),
		}
		s.clients = append(s.clients, c)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.loop()
		}()
	}
	return s
}

// measure opens the next window for d. on and off, if non-nil, bracket it
// (switch tracing or an observer on, then off).
func (s *session) measure(d time.Duration, on, off func()) {
	idx := len(s.windows)
	ws := &windowStats{}
	s.windows = append(s.windows, ws)
	if on != nil {
		on()
	}
	ws.open = takeSnapshot(s.rs.f.led, s.withMem)
	s.rs.window.Store(int32(idx))
	time.Sleep(d)
	s.rs.window.Store(-1)
	ws.closed = takeSnapshot(s.rs.f.led, s.withMem)
	if off != nil {
		off()
	}
}

// finish stops the clients, waits for the peers' late callbacks, merges the
// per-client accumulators into the windows and returns the traced attempts
// and the union of touched keys.
func (s *session) finish() (attempts []attemptRec, touched map[string]struct{}) {
	s.rs.stop.Store(true)
	s.wg.Wait()
	// Peers apply outcomes on their own schedule; give the ledger a while
	// to settle before judging what is left (it settles at once unless a
	// peer is stuck deciding).
	deadline := time.Now().Add(16*s.rs.f.u + 2*time.Second)
	for s.rs.f.led.pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	touched = make(map[string]struct{})
	for _, c := range s.clients {
		for i, ws := range s.windows {
			ws.acc.merge(&c.acc[i])
		}
		for k := range c.touched {
			touched[k] = struct{}{}
		}
		attempts = append(attempts, c.attempts...)
	}
	return attempts, touched
}

// verdict is the output checker's result for one run.
type verdict struct {
	correct        bool
	peerViolations int64 // transactions whose peers and client did not all see one outcome
	unsettled      int   // transactions some peer never reported on
	detail         string
}

// violations is every agreement violation of the run: the ledger's plus
// the ones the cluster itself reported to a client inside a window.
func (v verdict) violations(windows []*windowStats) int64 {
	n := v.peerViolations
	for _, ws := range windows {
		n += int64(ws.acc.violations)
	}
	return n
}

// check runs the end-of-run checks: ledger leftovers and, on kv workloads,
// conservation of the transferred balances.
func (s *session) check(touched map[string]struct{}) verdict {
	f := s.rs.f
	v := verdict{correct: true, unsettled: f.led.finish()}
	v.peerViolations = f.led.violations.Load()
	if f.probe != nil {
		slack := f.led.violatedSum.Load() + f.led.unsettledSum.Load()
		sum, err := checkConservation(f.probe, touched)
		switch {
		case err != nil:
			v.correct, v.detail = false, err.Error()
		case sum < -slack || sum > slack:
			v.correct = false
			v.detail = fmt.Sprintf("conservation broken: %d touched keys sum to %d, want 0 (+-%d for %d agreement violations and %d unsettled transactions)",
				len(touched), sum, slack, v.peerViolations, v.unsettled)
		}
	}
	return v
}
