package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The yardstick is a fixed piece of work, made only of benchmark code, timed
// every yardstickPeriod while the window is measured. The sandbox's host
// changes speed by tens of percent from one spell to the next (a busy
// sibling hyperthread, other guests), and cpu_us_per_commit, a CPU time,
// changes with it while the program stays the same. The yardstick wakes
// from a sleep and runs for about a millisecond, as the program's
// goroutines do, so its CPU time changes by the same share:
// cpu_us_per_commit is reported scaled to the host speed at which one round
// takes yardstickNominal (what it takes here in a quiet spell, so the
// scaled number stays close to real microseconds). Nothing in the yardstick
// calls into the program: a change to the program cannot move it, and the
// yardstick is never changed together with the program.
//
// The mix follows what a commit spends CPU on: string-keyed map reads and
// writes with small allocations, varints encoded into a buffer and decoded
// back, a hash, a mutex and a channel, and small writes and reads on a pipe
// for the kernel's share.
const (
	yardstickNominal = 850 * time.Microsecond
	yardstickPeriod  = 20 * time.Millisecond
	yardstickKeys    = 4096
	// yardstickMinSamples is how many rounds a slice needs for their median
	// to mean something; a one-second slice has fifty.
	yardstickMinSamples = 10
)

type yardstick struct {
	keys  []string
	table map[string][]byte
	buf   []byte
	mu    sync.Mutex
	ch    chan uint64
	r, w  int // pipe ends
	sink  uint64
}

func newYardstick() (*yardstick, error) {
	y := &yardstick{table: make(map[string][]byte, yardstickKeys), ch: make(chan uint64, 1)}
	for i := 0; i < yardstickKeys; i++ {
		k := "yard-" + strconv.Itoa(i*2654435761%1000003)
		y.keys = append(y.keys, k)
		y.table[k] = make([]byte, 24)
	}
	var p [2]int
	if err := syscall.Pipe(p[:]); err != nil {
		return nil, fmt.Errorf("yardstick pipe: %w", err)
	}
	y.r, y.w = p[0], p[1]
	return y, nil
}

func (y *yardstick) close() {
	syscall.Close(y.r)
	syscall.Close(y.w)
}

// threadCPU is the calling OS thread's CPU time so far.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// The call cannot fail with a valid clock and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// round does the fixed work once and returns the CPU time the calling
// thread, which the caller has locked, spent on it.
func (y *yardstick) round(n int) time.Duration {
	var small [16]byte
	t0 := threadCPU()
	for i, k := range y.keys {
		// Map read, small allocation, map write.
		old := y.table[k]
		v := make([]byte, 24)
		binary.LittleEndian.PutUint64(v, binary.LittleEndian.Uint64(old)+uint64(i))
		y.table[k] = v
		// Encode two varints and a string, decode them back, hash the lot.
		y.buf = y.buf[:0]
		y.buf = binary.AppendUvarint(y.buf, uint64(i)*uint64(n+1))
		y.buf = binary.AppendUvarint(y.buf, y.sink)
		y.buf = append(y.buf, k...)
		a, m := binary.Uvarint(y.buf)
		b, _ := binary.Uvarint(y.buf[m:])
		h := fnv.New64a()
		h.Write(y.buf)
		y.sink += a ^ b ^ h.Sum64()
		// Lock and channel traffic without a second party.
		y.mu.Lock()
		y.ch <- y.sink
		y.sink = <-y.ch
		y.mu.Unlock()
		// The kernel's share: one small write and read per 16 keys. The pipe
		// is empty before and after, so neither call can block or fail.
		if i%16 == 0 {
			binary.LittleEndian.PutUint64(small[:], y.sink)
			syscall.Write(y.w, small[:])
			syscall.Read(y.r, small[:])
		}
	}
	return threadCPU() - t0
}

// yardSample is one timed round.
type yardSample struct {
	at  time.Time
	cpu time.Duration
}

// start runs one round every yardstickPeriod on a thread of its own until
// the returned function is called, which returns the samples.
func (y *yardstick) start() (stop func() []yardSample) {
	done := make(chan struct{})
	var (
		wg      sync.WaitGroup
		samples []yardSample
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(yardstickPeriod)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			case <-tick.C:
				samples = append(samples, yardSample{cpu: y.round(n), at: time.Now()})
			}
		}
	}()
	return func() []yardSample {
		close(done)
		wg.Wait()
		return samples
	}
}

// scaledCPUPerCommit is one slice's cpu_us_per_commit: the process's CPU
// over the slice less what the yardstick's own rounds took, per commit,
// scaled by how far the slice's median round was from yardstickNominal. It
// also returns that median round, in microseconds.
func scaledCPUPerCommit(ws *windowStats, samples []yardSample) (scaled, roundUs float64, err error) {
	var rounds []float64
	own := time.Duration(0)
	for _, s := range samples {
		if s.at.After(ws.open.at) && !s.at.After(ws.closed.at) {
			rounds = append(rounds, float64(s.cpu))
			own += s.cpu
		}
	}
	if len(rounds) < yardstickMinSamples {
		return 0, 0, fmt.Errorf("the yardstick ran %d times in a slice, need %d", len(rounds), yardstickMinSamples)
	}
	cpu := ws.closed.cpu - ws.open.cpu - own
	round := median(rounds)
	perCommit := ratio(float64(cpu.Microseconds()), float64(ws.acc.commits))
	return perCommit * float64(yardstickNominal) / round, round / 1e3, nil
}
