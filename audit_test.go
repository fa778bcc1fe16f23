package atomiccommit

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/nbac"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols"
	"atomiccommit/kv"
)

// TestAuditedLoad puts the live stack under closed-loop load with the live
// NBAC auditor watching every transaction against its protocol's Table 1
// contract and the flight recorder on: the in-memory mesh at a tight U, peers
// and a client on loopback TCP, and the kv store over sockets shaped like
// three continents. There is no allowlist: any property violation fails the
// test with the offending transaction's merged interleaving. Not parallel:
// the auditor, the recorder and the anomaly hook are the process's.
func TestAuditedLoad(t *testing.T) {
	const n, f = 4, 1
	contracts := make(map[string]nbac.Contract)
	for _, info := range protocols.All() {
		contracts[info.Name] = info.Contract
	}
	obs.Default.Enable()
	t.Cleanup(func() {
		obs.SetAuditor(nil)
		obs.SetAnomalyHook(nil)
		obs.Default.Reset()
		obs.Default.Disable()
	})
	// audited runs one subtest under a fresh auditor and checks it saw at
	// least floor transactions through, and no violation.
	audited := func(name string, floor int64, run func(t *testing.T)) {
		t.Run(name, func(t *testing.T) {
			aud := obs.NewAuditor(obs.AuditorConfig{Contracts: contracts})
			obs.SetAuditor(aud)
			// The first anomaly's interleaving; the summary counts the rest.
			var reported atomic.Bool
			obs.SetAnomalyHook(func(d obs.Dump) {
				if !reported.Swap(true) {
					t.Errorf("%s", d.Interleaving())
				}
			})
			defer obs.SetAnomalyHook(nil)
			run(t)
			s := aud.Summary()
			t.Logf("auditor: %d transactions checked, %d observed, %d incomplete", s.TxnsChecked, s.TxnsObserved, s.Incomplete)
			if len(s.Violations) != 0 {
				t.Errorf("property violations: %v (e.g. %v)", s.Violations, s.ViolationTxns)
			}
			if s.TxnsChecked < floor {
				t.Errorf("auditor checked %d transactions (%d observed, %d incomplete), want at least %d",
					s.TxnsChecked, s.TxnsObserved, s.Incomplete, floor)
			}
		})
	}

	audited("mesh", 4*2048*95/100, func(t *testing.T) {
		for _, proto := range []string{"inbac", "2pc"} {
			for _, depth := range []int{16, 64} {
				rs := make([]commit.Resource, n)
				for i := range rs {
					rs[i] = commit.ResourceFunc{}
				}
				cl, err := commit.NewCluster(rs, commit.Options{Protocol: commit.Protocol(proto), F: f, Timeout: 5 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				closedLoop(t, depth, 2048, func(ctx context.Context, _, seq int) error {
					_, err := cl.Commit(ctx, fmt.Sprintf("%s-d%d-%d", proto, depth, seq))
					return err
				})
				cl.Close()
			}
		}
	})

	audited("tcp", 2*600*95/100, func(t *testing.T) {
		for _, proto := range []string{"inbac", "2pc"} {
			opts := commit.Options{Protocol: commit.Protocol(proto), F: f, Timeout: 20 * time.Millisecond}
			addrs := loopbackAddrs(t, n)
			for i := range addrs {
				p, err := commit.NewPeer(i+1, addrs, commit.ResourceFunc{}, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
			}
			cl, err := commit.NewClient(n+1, addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			closedLoop(t, 16, 600, func(ctx context.Context, _, seq int) error {
				_, err := cl.Submit(ctx, fmt.Sprintf("%s-%d", proto, seq)).Wait(ctx)
				return err
			})
		}
	})

	// Two cells, one auditor: the stores have client IDs of their own, so
	// their transactions (kv-c<client>-<seq>) never share a txID.
	audited("kv", 16, func(t *testing.T) {
		profile, err := live.NamedProfile("us-eu-ap")
		if err != nil {
			t.Fatal(err)
		}
		readFracs := []float64{0.5, 0.9}
		for c := range readFracs {
			profile.Pin(core.ProcessID(n+1+c), profile.Regions[0])
		}
		opts := commit.Options{Protocol: commit.INBAC, F: f, Net: profile}
		addrs := loopbackAddrs(t, n)
		for i := range addrs {
			p, err := kv.ServeShard(i, addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
		}
		for c, readFrac := range readFracs {
			store, err := kv.OpenRemote(n+1+c, addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			const depth = 4
			gens := make([]*kv.Gen, depth) // a Gen is single-goroutine: one per worker
			for w := range gens {
				gens[w], err = kv.Workload{Keys: 256, Theta: 0.7, ReadFrac: readFrac}.Generator(int64(w) + 1)
				if err != nil {
					t.Fatal(err)
				}
			}
			closedLoop(t, depth, 24, func(ctx context.Context, w, _ int) error {
				txn := store.Txn().WithContext(ctx)
				gens[w].Apply(txn, gens[w].NextTxn())
				p, err := txn.Submit(ctx)
				if err == nil {
					_, err = p.Wait(ctx)
				}
				return err
			})
			store.Close()
		}
	})
}

// closedLoop runs transactions 0..txns-1, depth at a time, worker w running
// one after another; an error (no decision) fails t.
func closedLoop(t *testing.T, depth, txns int, txn func(ctx context.Context, w, seq int) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := int(next.Add(1)) - 1; seq < txns; seq = int(next.Add(1)) - 1 {
				if err := txn(ctx, w, seq); err != nil {
					t.Errorf("transaction %d: %v", seq, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// loopbackAddrs reserves n loopback ports by binding and releasing them:
// every peer needs the full address list before any of them listens.
func loopbackAddrs(t *testing.T, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs
}
