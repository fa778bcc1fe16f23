package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols"
	"atomiccommit/internal/protocols/inbac"
)

// Standalone micro-runs: each times one layer's exported functions with
// nothing else running, before the workload's fleet boots. They state what
// a layer costs in isolation; the windowed counters and spans say what it
// cost inside the workload.

// voteEnvelope is the canonical envelope of the codec micro-runs: an INBAC
// vote, the most frequent message on every workload's wire.
func voteEnvelope() live.Envelope {
	return live.Envelope{TxID: "tx-1", From: 1, To: 2, Msg: inbac.MsgV{V: core.Commit}}
}

// sink defeats dead-code elimination of the timed calls.
var sink atomic.Int64

// microWire times live.MarshalMessage + live.UnmarshalMessage of an INBAC
// vote and returns ns per round trip and the vote envelope's exact size.
func microWire() (roundTripNs, envelopeBytes float64, err error) {
	size, err := live.EncodedSize(voteEnvelope())
	if err != nil {
		return 0, 0, err
	}
	const iters = 200000
	msg := inbac.MsgV{V: core.Commit}
	start := time.Now()
	for i := 0; i < iters; i++ {
		b, err := live.MarshalMessage(msg)
		if err != nil {
			return 0, 0, err
		}
		m, err := live.UnmarshalMessage(b)
		if err != nil {
			return 0, 0, err
		}
		sink.Add(int64(len(m.Kind())))
	}
	return float64(time.Since(start)) / iters, float64(size), nil
}

// microTCPSend times steady-state Send between two live.TCP endpoints on
// loopback: ns per envelope from the first Send to the last delivery.
func microTCPSend() (float64, error) {
	addrs, err := reservePorts(2)
	if err != nil {
		return 0, err
	}
	a, err := live.NewTCP(1, addrs)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := live.NewTCP(2, addrs)
	if err != nil {
		return 0, err
	}
	defer b.Close()

	const warm, iters = 2000, 100000
	var got atomic.Int64
	warmed, done := make(chan struct{}), make(chan struct{})
	b.SetHandler(func(live.Envelope) {
		switch got.Add(1) {
		case warm:
			close(warmed)
		case warm + iters:
			close(done)
		}
	})
	send := func(n int, until chan struct{}) error {
		e := voteEnvelope()
		for i := 0; i < n; i++ {
			if err := a.Send(e); err != nil {
				return err
			}
		}
		select {
		case <-until:
			return nil
		case <-time.After(20 * time.Second):
			return fmt.Errorf("tcp micro-run: %d of %d envelopes delivered", got.Load(), warm+iters)
		}
	}
	if err := send(warm, warmed); err != nil { // dials, grows the buffers
		return 0, err
	}
	start := time.Now()
	if err := send(iters, done); err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / iters, nil
}

// microInstance runs transactions over n live.Instances wired by a direct
// in-memory Send (no transport, no codec, no commit layer) and returns the
// process CPU and heap allocations one transaction costs across all n
// instances.
func microInstance(proto string) (cpuUsPerTxn, allocsPerTxn float64, err error) {
	info, ok := protocols.ByName(proto)
	if !ok {
		return 0, 0, fmt.Errorf("instance micro-run: unknown protocol %q", proto)
	}
	const (
		batches, perBatch = 16, 128
		u                 = 20 // ticks (ms): far above the in-memory delivery time
	)
	// Envelopes are queued and delivered by workers, never inline: Send is
	// called from inside a handler holding the sender's lock. The queue
	// holds every envelope a batch can have in flight (a nice INBAC run is
	// 8 per transaction), so a handler's Send never blocks on its worker.
	queue := make(chan live.Envelope, 64*perBatch)
	var mu sync.RWMutex
	route := make(map[string][]*live.Instance, perBatch)
	var workers sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for e := range queue {
				mu.RLock()
				insts := route[e.TxID]
				mu.RUnlock()
				if insts != nil {
					insts[e.To-1].Deliver(e)
				}
			}
		}()
	}
	defer func() {
		close(queue)
		workers.Wait()
	}()
	send := func(e live.Envelope) error {
		queue <- e
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	runBatch := func(b int) error {
		all := make([][]*live.Instance, perBatch)
		mu.Lock()
		for i := range all {
			txID := strconv.Itoa(b) + "." + strconv.Itoa(i)
			insts := make([]*live.Instance, nPeers)
			for p := range insts {
				insts[p] = live.NewInstance(live.Config{
					ID: core.ProcessID(p + 1), N: nPeers, F: fCrashes, U: u, TxID: txID,
					Label: "micro-" + proto, New: info.New(), Send: send,
				})
			}
			route[txID] = insts
			all[i] = insts
		}
		mu.Unlock()
		for _, insts := range all {
			for _, inst := range insts {
				inst.Start(core.Commit)
			}
		}
		for _, insts := range all {
			for _, inst := range insts {
				// An abort (a stalled sandbox outran U) costs about what a
				// commit does and is not worth failing the run over.
				if _, err := inst.Wait(ctx); err != nil {
					return err
				}
			}
		}
		mu.Lock()
		for _, insts := range all {
			for _, inst := range insts {
				inst.Close()
			}
		}
		clear(route)
		mu.Unlock()
		return nil
	}
	if err := runBatch(-1); err != nil { // warm the allocator and the timer heap
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	for b := 0; b < batches; b++ {
		if err := runBatch(b); err != nil {
			return 0, 0, err
		}
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	txns := float64(batches * perBatch)
	return float64(cpu.Microseconds()) / txns, float64(m1.Mallocs-m0.Mallocs) / txns, nil
}

// microNice returns the exact nice-execution counts of proto at n=4, f=1
// from the deterministic simulator: the paper's two complexity measures.
func microNice(proto commit.Protocol) (delays, messages float64, err error) {
	r, err := commit.Simulate(proto, commit.Scenario{N: nPeers, F: fCrashes})
	if err != nil {
		return 0, 0, err
	}
	if !r.Committed {
		return 0, 0, fmt.Errorf("nice execution of %s did not commit", proto)
	}
	return float64(r.Delays), float64(r.Messages), nil
}

// microLoadgen states what the generator itself costs per transaction.
func microLoadgen(cfg genConfig, z *zipf) float64 {
	const iters = 200000
	g := newGenerator(cfg, z, 1, 0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		sink.Add(int64(len(g.next().Keys)))
	}
	return float64(time.Since(start)) / iters
}

// counterNames are the obs.M counters the windows diff.
var counterNames = []string{
	"live.send.envelopes", "live.send.bytes", "live.tcp.flush.frames",
	"live.tcp.dials", "live.tcp.evictions",
	"live.mesh.envelopes", "live.mesh.bytes",
	"decide_path.inbac.fast", "decide_path.inbac.help-fast", "decide_path.inbac.consensus",
	"kv.conflict.intent", "kv.conflict.stale_read",
	"kv.remote.legs", "kv.remote.read.batches", "kv.remote.read.retries",
	"kv.cache.hit", "kv.cache.miss", "kv.cache.stale_abort",
}

// snapshot is a point-in-time reading of everything a window diffs.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	counters map[string]int64
	mem      runtime.MemStats

	ledVotes, ledNo, ledTiming, ledViolations int64
}

// takeSnapshot reads the counters; withMem additionally reads MemStats,
// which stops the world and so is kept out of the end-to-end runs.
func takeSnapshot(led *ledger, withMem bool) snapshot {
	s := snapshot{counters: make(map[string]int64, len(counterNames))}
	for _, name := range counterNames {
		s.counters[name] = obs.M.CounterValue(name)
	}
	s.ledVotes, s.ledNo, s.ledTiming = led.votes.Load(), led.voteNo.Load(), led.timingAborts.Load()
	s.ledViolations = led.violations.Load()
	if withMem {
		runtime.ReadMemStats(&s.mem)
	}
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}
