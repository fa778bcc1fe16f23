package main

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"atomiccommit/kv"
)

// The output checker. Three checks run inside every benchmark run:
//
//  1. Agreement (ledger): per transaction ID, every peer's outcome
//     callback must match every other's and the reply the client got.
//  2. Conservation (checkConservation): kv transfers move an amount
//     between two keys, so the balances of all touched keys sum to zero
//     whatever subset committed — unless a commit was applied partially or
//     an update was lost.
//  3. Read-your-writes (the probe in client.transfer): a committed write
//     must be visible to a read issued after the commit reply.
//
// Disagreements and probe failures are counted, never fatal: the INBAC
// agreement bug and the cross-shard visibility gap (ROADMAP) are known and
// the benchmark's job is to measure them. A transfer whose peers disagreed,
// or that a peer never confirmed, is applied on some shards only, so it may
// move the sum by up to its amount; conservation broken by more than those
// counted transfers explain makes the run incorrect.

// What the client was told about a transaction.
const (
	clientUnknown uint8 = iota
	clientCommitted
	clientAborted
	clientError // no claim: the call failed or timed out
)

// ledgerEntry is everything observed about one transaction ID; the masks
// have bit p-1 set for peer p.
type ledgerEntry struct {
	yes, no       uint8
	commit, abort uint8
	client        uint8
	amount        int32 // what a kv transfer moves; 0 otherwise
}

// ledger collects votes and outcomes from the decorators and replies from
// the clients. An entry is judged and dropped as soon as all n peers and
// the client have reported, so memory stays bounded by what is in flight.
type ledger struct {
	all    uint8 // mask with every peer's bit
	seed   maphash.Seed
	shards [64]ledgerShard

	violations   atomic.Int64
	violatedSum  atomic.Int64 // total amount of the transfers among the violations
	unsettledSum atomic.Int64 // same, for commits some peer never confirmed (finish)
	timingAborts atomic.Int64 // aborted although every vote was yes
	voteNo       atomic.Int64 // Prepare calls that voted no
	votes        atomic.Int64 // Prepare calls
}

type ledgerShard struct {
	mu sync.Mutex
	m  map[string]*ledgerEntry
}

func newLedger(n int) *ledger {
	l := &ledger{all: uint8(1)<<n - 1, seed: maphash.MakeSeed()}
	for i := range l.shards {
		l.shards[i].m = make(map[string]*ledgerEntry)
	}
	return l
}

// update applies f to txID's entry and judges it if it became complete.
func (l *ledger) update(txID string, f func(*ledgerEntry)) {
	sh := &l.shards[maphash.String(l.seed, txID)%uint64(len(l.shards))]
	sh.mu.Lock()
	e := sh.m[txID]
	if e == nil {
		e = &ledgerEntry{}
		sh.m[txID] = e
	}
	f(e)
	done := e.client != clientUnknown && e.commit|e.abort == l.all
	if done {
		delete(sh.m, txID)
	}
	sh.mu.Unlock()
	if done {
		l.judge(e)
	}
}

func (l *ledger) vote(txID string, peer int, yes bool) {
	l.votes.Add(1)
	if !yes {
		l.voteNo.Add(1)
	}
	l.update(txID, func(e *ledgerEntry) {
		if yes {
			e.yes |= 1 << (peer - 1)
		} else {
			e.no |= 1 << (peer - 1)
		}
	})
}

func (l *ledger) outcome(txID string, peer int, committed bool) {
	l.update(txID, func(e *ledgerEntry) {
		if committed {
			e.commit |= 1 << (peer - 1)
		} else {
			e.abort |= 1 << (peer - 1)
		}
	})
}

// reply records what the client was told; amount is what the transaction
// transfers between its two keys (0 if it writes nothing).
func (l *ledger) reply(txID string, client uint8, amount int) {
	l.update(txID, func(e *ledgerEntry) { e.client, e.amount = client, int32(amount) })
}

func (l *ledger) violated(e *ledgerEntry) {
	l.violations.Add(1)
	l.violatedSum.Add(int64(e.amount))
}

// disagree reports whether the recorded facts contradict each other.
func (e *ledgerEntry) disagree() bool {
	return (e.commit != 0 && e.abort != 0) ||
		(e.client == clientCommitted && e.abort != 0) ||
		(e.client == clientAborted && e.commit != 0)
}

func (l *ledger) judge(e *ledgerEntry) {
	switch {
	case e.disagree():
		l.violated(e)
	case e.no == 0 && (e.abort != 0 || e.client == clientAborted):
		l.timingAborts.Add(1)
	}
}

// finish judges whatever is still incomplete after the drain and returns
// how many entries that was. A peer that never reported cannot disagree,
// but the facts that did arrive can; and a transaction somebody saw commit
// while a peer stayed silent may be applied on some shards only.
func (l *ledger) finish() int {
	left := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for id, e := range sh.m {
			left++
			switch {
			case e.disagree():
				l.violated(e)
			case e.commit != 0 || e.client == clientCommitted:
				l.unsettledSum.Add(int64(e.amount))
			}
			delete(sh.m, id)
		}
		sh.mu.Unlock()
	}
	return left
}

// pending counts entries still waiting for a report.
func (l *ledger) pending() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Balances are stored as "<amount>|<tag>": the tag is unique per writing
// attempt, so a probe can tell "still the value I overwrote" from "an equal
// amount written by someone else since".
func encodeBalance(amount int64, tag string) string {
	return strconv.FormatInt(amount, 10) + "|" + tag
}

func decodeBalance(v string, ok bool) (int64, error) {
	if !ok {
		return 0, nil // an unwritten account holds 0
	}
	num, _, _ := strings.Cut(v, "|")
	return strconv.ParseInt(num, 10, 64)
}

// checkConservation reads every touched key back through store (which must
// not cache) and returns the sum of the balances, which must be 0.
func checkConservation(store *kv.Store, touched map[string]struct{}) (sum int64, err error) {
	keys := make([]string, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	const batch = 2048
	for len(keys) > 0 {
		n := min(batch, len(keys))
		vals, oks, err := store.Txn().GetMulti(keys[:n]...)
		if err != nil {
			return 0, fmt.Errorf("conservation read-back: %w", err)
		}
		for i := range vals {
			b, err := decodeBalance(vals[i], oks[i])
			if err != nil {
				return 0, fmt.Errorf("conservation: key %q holds %q: %w", keys[i], vals[i], err)
			}
			sum += b
		}
		keys = keys[n:]
	}
	return sum, nil
}
