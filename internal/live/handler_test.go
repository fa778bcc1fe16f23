package live

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/internal/consensus"
	"atomiccommit/internal/core"
	"atomiccommit/internal/protocols/inbac"
)

// lateBackup is INBAC's P1 running late, in miniature: its first timeout
// handler sends itself a message and then arms a timer at a tick already
// past. It decides commit if the message was delivered before that timer's
// handler ran, abort otherwise.
type lateBackup struct {
	env core.Env
	got bool
}

func (p *lateBackup) Init(env core.Env)                    { p.env = env }
func (p *lateBackup) Propose(core.Value)                   { p.env.SetTimerAt(0, 0) }
func (p *lateBackup) Deliver(core.ProcessID, core.Message) { p.got = true }
func (p *lateBackup) Timeout(tag int) {
	if tag == 0 {
		p.env.Send(p.env.ID(), echoMsg{})
		p.env.SetTimerAt(0, 1)
		return
	}
	v := core.Abort
	if p.got {
		v = core.Commit
	}
	p.env.Decide(v)
}

// TestSelfSendBeforeLaterEvents is the regression test of the INBAC agreement
// violation's root cause: a self-send is delivered before any other event of
// the instance, a timer that is already due included. With self-sends
// delivered by a goroutine each, that timer's goroutine could win, and
// decideTimeoutLow then ran without the process's own acknowledgement.
func TestSelfSendBeforeLaterEvents(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const iterations = 1000
	insts := make([]*Instance, iterations)
	for i := range insts {
		insts[i] = NewInstance(Config{ID: 1, N: 1, U: 10, TxID: "late-" + strconv.Itoa(i),
			New:  func(core.ProcessID) core.Module { return &lateBackup{} },
			Send: func(Envelope) error { return nil }})
		insts[i].Start(core.Commit)
	}
	overtaken := 0
	for _, inst := range insts {
		v, err := inst.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v != core.Commit {
			overtaken++
		}
		inst.Close()
	}
	if overtaken > 0 {
		t.Fatalf("a due timer overtook the self-send on %d of %d iterations", overtaken, iterations)
	}
}

// TestCloseReleasesDeadlines: a closed instance's far deadlines neither fire
// nor stay on the heap once they outnumber the live ones.
func TestCloseReleasesDeadlines(t *testing.T) {
	heapLen := func() int {
		deadlines.mu.Lock()
		defer deadlines.mu.Unlock()
		return len(deadlines.heap)
	}
	before := heapLen()
	const count = 200
	fired := make(chan int, count)
	insts := make([]*Instance, count)
	for i := range insts {
		insts[i] = NewInstance(Config{ID: 1, N: 1, U: 10, TxID: "far-" + strconv.Itoa(i),
			New:  func(core.ProcessID) core.Module { return &farTimer{fired: fired} },
			Send: func(Envelope) error { return nil }})
		insts[i].Start(core.Commit)
	}
	if got := heapLen(); got < before+count {
		t.Fatalf("heap holds %d deadlines, want at least %d", got, before+count)
	}
	for _, inst := range insts {
		inst.Close()
	}
	// Whatever else the package's tests left armed may stay; of ours, at most
	// as many as that.
	if got := heapLen(); got > 2*before+1 {
		t.Fatalf("heap still holds %d deadlines after Close, had %d before", got, before)
	}
	select {
	case tag := <-fired:
		t.Fatalf("timer %d of a closed instance fired", tag)
	case <-time.After(60 * time.Millisecond): // past farTimer's first deadline
	}
}

// farTimer arms one deadline shortly ahead and one far ahead, like a
// consensus ballot.
type farTimer struct {
	mute
	env   core.Env
	fired chan int
}

func (p *farTimer) Init(env core.Env) { p.env = env }
func (p *farTimer) Propose(core.Value) {
	p.env.SetTimerAt(40, 1)
	p.env.SetTimerAt(1<<20, 2)
}
func (p *farTimer) Timeout(tag int) { p.fired <- tag }

// TestAfter: host callbacks share the deadline heap and fire in deadline
// order.
func TestAfter(t *testing.T) {
	order := make(chan int, 3)
	After(30*time.Millisecond, func() { order <- 3 })
	After(10*time.Millisecond, func() { order <- 1 })
	After(20*time.Millisecond, func() { order <- 2 })
	start := time.Now()
	for want := 1; want <= 3; want++ {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("callback %d fired in place %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("callback %d never fired", want)
		}
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("last callback fired after %v, before its 30ms deadline", d)
	}
}

// TestSecondChildPanics: a module tree has at most one child
// (core.Env.Register), which the instance holds in place; it refuses a
// second rather than route that child's messages nowhere.
func TestSecondChildPanics(t *testing.T) {
	inst := NewInstance(Config{ID: 1, N: 1, U: 20, TxID: "two",
		New:  func(core.ProcessID) core.Module { return &twoChildren{} },
		Send: func(Envelope) error { return nil }})
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "second child") {
			t.Fatalf("a second child registered without the panic (recovered %v)", r)
		}
	}()
	inst.Start(core.Commit)
}

// twoChildren registers two children in Init.
type twoChildren struct{ lateBackup }

func (p *twoChildren) Init(env core.Env) {
	env.Register("a", &lateBackup{}, func(core.Value) {})
	env.Register("b", &lateBackup{}, func(core.Value) {})
}

// niceINBAC runs txns INBAC transactions at n=4, f=1 to their four decisions,
// all at once, over a direct in-memory Send: no transport, no codec, no
// commit layer — live.Instance and the protocol module alone. U is far above
// the delivery time, so every execution is nice.
func niceINBAC(tb testing.TB, txns int, opts inbac.Options) {
	const n, f, u = 4, 1, 20
	// A handler's Send only queues (it holds its instance); one pump delivers.
	// A nice run is 2fn = 8 envelopes per transaction.
	queue := make(chan Envelope, 16*txns)
	all := make([][n]*Instance, txns)
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for e := range queue {
			i, _ := strconv.Atoi(e.TxID)
			all[i][e.To-1].Deliver(e)
		}
	}()
	mk := inbac.New(opts)
	send := func(e Envelope) error { queue <- e; return nil }
	for i := range all {
		for p := range all[i] {
			all[i][p] = NewInstance(Config{ID: core.ProcessID(p + 1), N: n, F: f, U: u,
				TxID: strconv.Itoa(i), Label: "inbac", New: mk,
				Send: send})
		}
	}
	for i := range all {
		for _, inst := range all[i] {
			inst.Start(core.Commit)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := range all {
		for _, inst := range all[i] {
			if v, err := inst.Wait(ctx); err != nil || v != core.Commit {
				tb.Errorf("txn %d at %v: decided %v, %v", i, inst.id, v, err)
			}
			inst.Close()
		}
	}
	close(queue)
	<-pumped
}

// TestNiceINBACBuildsNoConsensus: a nice INBAC commit on the live runtime
// never builds its consensus module.
func TestNiceINBACBuildsNoConsensus(t *testing.T) {
	var builds atomic.Int64
	niceINBAC(t, 16, inbac.Options{Consensus: func() core.Module {
		builds.Add(1)
		return consensus.New()
	}})
	if b := builds.Load(); b != 0 {
		t.Fatalf("16 nice INBAC transactions built %d consensus modules, want 0", b)
	}
}

// BenchmarkInstanceNiceINBAC is the layer benchmark of a nice INBAC commit:
// per transaction, the CPU and allocations of four live.Instances from Start
// to their decisions (wall time per op is 2U over the batch size, by design).
func BenchmarkInstanceNiceINBAC(b *testing.B) {
	b.ReportAllocs()
	const batch = 128
	for done := 0; done < b.N; done += batch {
		niceINBAC(b, min(batch, b.N-done), inbac.Options{})
	}
}
