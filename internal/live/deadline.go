package live

import (
	"math"
	"sync"
	"time"
)

// deadline is one armed timer: a protocol timer of an instance (inst, path,
// tag), or a host callback (fn).
type deadline struct {
	when time.Duration // since deadlineEpoch
	seq  uint64        // arming order; equal deadlines fire in it
	inst *Instance
	path string
	tag  int
	fn   func()
}

func (d *deadline) before(o *deadline) bool {
	return d.when < o.when || (d.when == o.when && d.seq < o.seq)
}

// deadlines is the process's one timer: a heap of every armed deadline and
// one goroutine, started with the first of them, that runs each handler when
// its time comes. A handler therefore runs on a stack that is already grown,
// and arming costs a heap slot, where a runtime timer each costs a timer, a
// closure and a fresh goroutine per firing.
//
// The goroutine runs every timer handler of the process, one at a time, so a
// handler must not block: see Config.Decided, After and TCP.Send.
var deadlines struct {
	mu   sync.Mutex
	heap []deadline
	seq  uint64
	// wakeAt is the deadline the goroutine sleeps towards, MaxInt64 with
	// nothing armed and MinInt64 while it is awake and will look at the heap
	// again by itself: arm wakes it only for an earlier deadline.
	wakeAt  time.Duration
	wake    chan struct{} // capacity 1
	started bool
	// dead counts the heap's deadlines whose instance was closed. They are
	// swept once they outnumber the live ones, so that a closed instance stays
	// reachable from here only for a bounded time, however far ahead it armed.
	dead int
}

var deadlineEpoch = time.Now()

// After runs fn on the process's timer goroutine once d has passed. fn must
// not block, nor call code that may: every protocol timer of the process
// waits behind it.
func After(d time.Duration, fn func()) {
	arm(deadline{when: time.Since(deadlineEpoch) + d, fn: fn})
}

func arm(d deadline) {
	h := &deadlines
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.started {
		h.started = true
		h.wake = make(chan struct{}, 1)
		h.wakeAt = math.MinInt64 // the goroutine starts awake
		go runDeadlines()
	}
	if d.inst != nil {
		if d.inst.released {
			return
		}
		d.inst.armed++
	}
	h.seq++
	d.seq = h.seq
	h.heap = append(h.heap, d)
	up(h.heap, len(h.heap)-1)
	if d.when < h.wakeAt {
		h.wakeAt = d.when
		select {
		case h.wake <- struct{}{}:
		default:
		}
	}
}

// releaseDeadlines makes the deadlines inst armed unreachable: none fires any
// more, and the sweep forgets them. Called by Instance.Close.
func releaseDeadlines(inst *Instance) {
	h := &deadlines
	h.mu.Lock()
	defer h.mu.Unlock()
	if inst.released {
		return
	}
	inst.released = true
	h.dead += inst.armed
	if h.dead <= len(h.heap)/2 {
		return
	}
	live := h.heap[:0]
	for _, d := range h.heap {
		if d.inst == nil || !d.inst.released {
			live = append(live, d)
		}
	}
	clear(h.heap[len(live):])
	h.heap = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		down(live, i)
	}
	h.dead = 0
}

func runDeadlines() {
	h := &deadlines
	timer := time.NewTimer(time.Hour)
	var due []deadline
	for {
		h.mu.Lock()
		now := time.Since(deadlineEpoch)
		for len(h.heap) > 0 && h.heap[0].when <= now {
			d := h.heap[0]
			last := len(h.heap) - 1
			h.heap[0] = h.heap[last]
			h.heap[last] = deadline{}
			h.heap = h.heap[:last]
			down(h.heap, 0)
			if d.inst != nil {
				if d.inst.released {
					h.dead--
					continue
				}
				d.inst.armed--
			}
			due = append(due, d)
		}
		var sleep time.Duration
		switch {
		case len(due) > 0:
			h.wakeAt = math.MinInt64
		case len(h.heap) > 0:
			h.wakeAt = h.heap[0].when
			sleep = h.wakeAt - now
		default:
			h.wakeAt = math.MaxInt64
			sleep = time.Hour
		}
		h.mu.Unlock()

		if len(due) > 0 {
			for i := range due {
				if d := &due[i]; d.fn != nil {
					d.fn()
				} else {
					d.inst.timeout(d.path, d.tag, d.when)
				}
			}
			clear(due)
			due = due[:0]
			continue // time has passed: look again before sleeping
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)
		select {
		case <-timer.C:
		case <-h.wake:
		}
	}
}

// up and down restore the heap order (earliest deadline at index 0) after
// the entry at i got earlier, or later, than its place. container/heap would
// box every pushed and popped deadline into an interface, an allocation each.
func up(h []deadline, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func down(h []deadline, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
