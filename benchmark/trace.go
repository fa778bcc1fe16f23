package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a call into a peer's resource.
type spanKind uint8

const (
	spanPrepare spanKind = iota
	spanCommit
	spanAbort
	spanStage
	spanQuery
)

var spanNames = [...]string{"resource.prepare", "resource.commit", "resource.abort", "resource.stage", "resource.query"}

// resSpan is one decorator-recorded call, in ns since the tracer's epoch.
type resSpan struct {
	txID       string
	kind       spanKind
	peer       int
	start, end int64
}

// attemptRec is the client side of one traced transaction attempt: the
// root client.txn span and its kv.read / kv.submit / commit.wait children,
// as boundaries on one timeline (ns since the tracer's epoch).
//
//	start ── readEnd ── submitStart ── submitEnd ── end
//	 kv.read            kv.submit       commit.wait
//
// Bare commits have no read leg (readEnd == start) and their submit span is
// the commit.Client/Cluster Submit call, which returns once the go message
// is queued.
type attemptRec struct {
	txID                   string
	start, readEnd         int64
	submitStart, submitEnd int64
	end                    int64
	committed              bool
}

// tracer holds the traced run's spans in memory; nothing is written until
// the run ends. Decorators append under a per-peer lock; clients own their
// attempt slices and hand them over after they stop.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	peers   []peerSpans
}

type peerSpans struct {
	mu    sync.Mutex
	spans []resSpan
}

func newTracer(n int) *tracer {
	return &tracer{epoch: time.Now(), peers: make([]peerSpans, n)}
}

func (t *tracer) on() bool   { return t.enabled.Load() }
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin stamps the start of a call into a resource: the time when tracing
// is on, -1 when it is off.
func (t *tracer) begin() int64 {
	if !t.on() {
		return -1
	}
	return t.now()
}

// end records the call into peer's resource that began at t0, unless
// tracing was off then.
func (t *tracer) end(peer int, kind spanKind, txID string, t0 int64) {
	if t0 < 0 {
		return
	}
	end := t.now()
	p := &t.peers[peer-1]
	p.mu.Lock()
	p.spans = append(p.spans, resSpan{txID: txID, kind: kind, peer: peer, start: t0, end: end})
	p.mu.Unlock()
}

// index groups the recorded spans by transaction ID; query spans carry
// none (reads are coalesced across transactions) and come back separately.
func (t *tracer) index() (byTx map[string][]resSpan, queries []resSpan) {
	byTx = make(map[string][]resSpan)
	for i := range t.peers {
		p := &t.peers[i]
		p.mu.Lock()
		for _, sp := range p.spans {
			if sp.kind == spanQuery {
				queries = append(queries, sp)
			} else {
				byTx[sp.txID] = append(byTx[sp.txID], sp)
			}
		}
		p.mu.Unlock()
	}
	return byTx, queries
}

// interval is a half-open [start, end) stretch of the trace timeline.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children are counted
// once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			covered += c.end - reach
			reach = c.end
		}
	}
	return parent.end - parent.start - covered
}

// traceSamples are the per-transaction quantities derived by joining each
// committed attempt with the resource spans that share its txID, plus the
// pooled per-call durations. All in ns; each slice is sorted.
type traceSamples struct {
	beginLeg, voteSkew, protoSpan, resultLeg, visLag, waitSelf []float64
	read, submit, wait                                         []float64
	prepare, apply, stage, query                               []float64
	joined                                                     int // committed attempts with every peer's spans
}

// analyze joins attempts with resource spans by txID. n is the peer count:
// an attempt is used only if all n Prepare and Commit spans were recorded
// (attempts straddling the traced window's edges are not).
func (t *tracer) analyze(attempts []attemptRec, n int, hasKV bool) traceSamples {
	byTx, queries := t.index()
	var s traceSamples
	for _, sp := range queries {
		s.query = append(s.query, float64(sp.end-sp.start))
	}
	for _, spans := range byTx {
		for _, sp := range spans {
			d := float64(sp.end - sp.start)
			switch sp.kind {
			case spanPrepare:
				s.prepare = append(s.prepare, d)
			case spanCommit:
				s.apply = append(s.apply, d)
			case spanStage:
				s.stage = append(s.stage, d)
			}
		}
	}
	for _, a := range attempts {
		if hasKV {
			s.read = append(s.read, float64(a.readEnd-a.start))
			s.submit = append(s.submit, float64(a.submitEnd-a.submitStart))
		}
		s.wait = append(s.wait, float64(a.end-a.submitEnd))
		if !a.committed {
			continue
		}
		var (
			prepEnd     = make(map[int]int64, n)
			firstPrep   = int64(1<<62 - 1)
			lastPrep    int64
			firstCommit = int64(1<<62 - 1)
			lastApplied int64
			span        int64
			commits     int
			children    []interval
		)
		spans := byTx[a.txID]
		for _, sp := range spans {
			if sp.kind == spanPrepare {
				prepEnd[sp.peer] = sp.end
				if sp.start < firstPrep {
					firstPrep = sp.start
				}
				if sp.start > lastPrep {
					lastPrep = sp.start
				}
			}
			children = append(children, interval{sp.start, sp.end})
		}
		for _, sp := range spans {
			if sp.kind != spanCommit {
				continue
			}
			pe, ok := prepEnd[sp.peer]
			if !ok {
				continue
			}
			commits++
			if d := sp.start - pe; d > span {
				span = d
			}
			if sp.start < firstCommit {
				firstCommit = sp.start
			}
			if sp.end > lastApplied {
				lastApplied = sp.end
			}
		}
		if len(prepEnd) < n || commits < n {
			continue
		}
		s.joined++
		// The go message leaves when Submit returns for kv (its stage
		// barrier comes first) and when Submit is called for bare commits.
		goSent := a.submitStart
		if hasKV {
			goSent = a.submitEnd
		}
		lag := lastApplied - a.end
		if lag < 0 {
			lag = 0
		}
		s.beginLeg = append(s.beginLeg, float64(firstPrep-goSent))
		s.voteSkew = append(s.voteSkew, float64(lastPrep-firstPrep))
		s.protoSpan = append(s.protoSpan, float64(span))
		s.resultLeg = append(s.resultLeg, float64(a.end-firstCommit))
		s.visLag = append(s.visLag, float64(lag))
		s.waitSelf = append(s.waitSelf, float64(selfTime(interval{a.submitEnd, a.end}, children)))
	}
	for _, xs := range []*[]float64{&s.beginLeg, &s.voteSkew, &s.protoSpan, &s.resultLeg, &s.visLag,
		&s.waitSelf, &s.read, &s.submit, &s.wait, &s.prepare, &s.apply, &s.stage, &s.query} {
		sort.Float64s(*xs)
	}
	return s
}

// traceFile is the on-disk form of a traced run: flat spans, parent links
// by id, times in ns since the tracer's epoch.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	UMs      float64     `json:"u_ms"`
	Attempts int         `json:"attempts_traced"`
	Written  int         `json:"attempts_written"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	TxID   string `json:"tx,omitempty"`
	Peer   int    `json:"peer,omitempty"` // 0 = the client
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxTraceAttempts bounds the trace file (the overload workload traces
// tens of thousands of attempts per second); the metrics use every span.
const maxTraceAttempts = 2000

// write stores the first maxTraceAttempts attempts' span trees, and as
// many of the (transaction-less, coalesced) query spans, under dir.
func (t *tracer) write(dir, workload string, seed int64, u time.Duration, attempts []attemptRec, hasKV bool) (string, error) {
	byTx, queries := t.index()
	out := traceFile{Workload: workload, Seed: seed, UMs: float64(u) / 1e6, Attempts: len(attempts)}
	sort.Slice(attempts, func(i, j int) bool { return attempts[i].start < attempts[j].start })
	add := func(parent int, name, tx string, peer int, start, end int64) int {
		id := len(out.Spans)
		out.Spans = append(out.Spans, traceSpan{ID: id, Parent: parent, Name: name, TxID: tx, Peer: peer, Start: start, End: end})
		return id
	}
	for _, a := range attempts {
		if out.Written == maxTraceAttempts {
			break
		}
		out.Written++
		root := add(-1, "client.txn", a.txID, 0, a.start, a.end)
		submitName := "commit.submit"
		if hasKV {
			add(root, "kv.read", a.txID, 0, a.start, a.readEnd)
			submitName = "kv.submit"
		}
		submit := add(root, submitName, a.txID, 0, a.submitStart, a.submitEnd)
		wait := add(root, "commit.wait", a.txID, 0, a.submitEnd, a.end)
		for _, sp := range byTx[a.txID] {
			parent := wait
			if sp.kind == spanStage && sp.start < a.submitEnd {
				parent = submit
			}
			add(parent, spanNames[sp.kind], a.txID, sp.peer, sp.start, sp.end)
		}
	}
	if len(queries) > maxTraceAttempts {
		queries = queries[:maxTraceAttempts]
	}
	for _, sp := range queries {
		add(-1, spanNames[sp.kind], "", sp.peer, sp.start, sp.end)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
