package kv

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"atomiccommit/commit"
)

// bank seeds accounts with an initial balance through one transaction and
// returns the account keys.
func bank(t *testing.T, s *Store, ctx context.Context, accounts, balance int) []string {
	t.Helper()
	keys := make([]string, accounts)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct-%d", i)
	}
	commitSeed(t, ctx, s, func(seed *Txn) {
		for _, k := range keys {
			seed.Put(k, strconv.Itoa(balance))
		}
	})
	return keys
}

// transfer builds one bank-transfer transaction: read both balances, move
// amount if funds allow. Insufficient funds leave the write set empty (a
// read-only transaction), so the protocol still validates the reads.
func transfer(s *Store, from, to string, amount int) *Txn {
	txn := s.Txn()
	fv, _ := txn.Get(from)
	tv, _ := txn.Get(to)
	fb, _ := strconv.Atoi(fv)
	tb, _ := strconv.Atoi(tv)
	if fb >= amount {
		txn.Put(from, strconv.Itoa(fb-amount))
		txn.Put(to, strconv.Itoa(tb+amount))
	}
	return txn
}

// checkConservation sums every balance and asserts the total is unchanged
// and no balance went negative.
func checkConservation(t *testing.T, s *Store, keys []string, want int) {
	t.Helper()
	total := 0
	for _, k := range keys {
		v, ok := s.Get(k)
		if !ok {
			t.Fatalf("account %s disappeared", k)
		}
		b, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("account %s holds garbage %q", k, v)
		}
		if b < 0 {
			t.Errorf("account %s went negative: %d", k, b)
		}
		total += b
	}
	if total != want {
		t.Errorf("conservation violated: total %d, want %d", total, want)
	}
}

// TestBankConservationUnderContention is the serializability invariant test:
// 240 concurrent conflicting transfers over 24 accounts spread across 4
// shards. Whatever subset commits, money is neither created nor destroyed.
// Run under -race this is the kv package's main interleaving test.
func TestBankConservationUnderContention(t *testing.T) {
	t.Parallel()
	const (
		shards   = 4
		accounts = 24
		balance  = 100
		txns     = 240
	)
	s := open(t, shards, commit.Options{})
	ctx := testCtx(t)
	keys := bank(t, s, ctx, accounts, balance)

	var committed, aborted int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			from := keys[r.Intn(accounts)]
			to := keys[r.Intn(accounts)]
			for to == from {
				to = keys[r.Intn(accounts)]
			}
			ok, err := transfer(s, from, to, 1+r.Intn(10)).Commit(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if ok {
				committed++
			} else {
				aborted++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if committed+aborted != txns {
		t.Fatalf("decided %d+%d, want %d", committed, aborted, txns)
	}
	if committed == 0 {
		t.Error("every transfer aborted; contention control is over-rejecting")
	}
	if aborted == 0 {
		t.Error("no transfer aborted; the workload induced no conflicts, so the test is vacuous")
	}
	t.Logf("committed=%d aborted=%d (abort rate %.0f%%)", committed, aborted,
		100*float64(aborted)/float64(txns))
	checkConservation(t, s, keys, accounts*balance)
}

// TestProtocolMatrixConservation runs the bank workload on every registered
// protocol: whatever the protocol's cost profile, committed transactions
// must preserve the invariant. 0NBAC's (AT, AT) cell gives up validity under
// timing violations (see TestClusterAbortAllProtocols in the commit
// package), so only its bookkeeping — not conservation — is asserted.
func TestProtocolMatrixConservation(t *testing.T) {
	t.Parallel()
	for _, name := range commit.Protocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const (
				accounts = 10
				balance  = 50
				txns     = 60
				workers  = 12
			)
			s := open(t, 4, commit.Options{
				Protocol: commit.Protocol(name), F: 1,
				Timeout: 50 * time.Millisecond,
			})
			ctx := testCtx(t)
			keys := bank(t, s, ctx, accounts, balance)

			var committed, aborted int
			var mu sync.Mutex
			var wg sync.WaitGroup
			work := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for range work {
						from := keys[r.Intn(accounts)]
						to := keys[r.Intn(accounts)]
						for to == from {
							to = keys[r.Intn(accounts)]
						}
						ok, err := transfer(s, from, to, 1+r.Intn(5)).Commit(ctx)
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						if ok {
							committed++
						} else {
							aborted++
						}
						mu.Unlock()
					}
				}(w)
			}
			for i := 0; i < txns; i++ {
				work <- i
			}
			close(work)
			wg.Wait()

			if t.Failed() {
				return
			}
			if committed+aborted != txns {
				t.Fatalf("decided %d+%d, want %d", committed, aborted, txns)
			}
			if committed == 0 {
				t.Error("every transfer aborted")
			}
			if name == "0nbac" {
				return
			}
			checkConservation(t, s, keys, accounts*balance)
		})
	}
}
