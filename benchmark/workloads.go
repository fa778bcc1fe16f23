package main

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/kv"
)

// Every workload runs n = 4 participants with f = 1 under INBAC, all in
// this process, driven by one client in closed loop.
const (
	nPeers   = 4
	fCrashes = 1
	protocol = commit.INBAC
)

// runtimeKind is which public surface a workload drives.
type runtimeKind uint8

const (
	runtimePeerTCP runtimeKind = iota // commit.Peer x4 on loopback + commit.Client
	runtimeMesh                       // commit.Cluster on the in-memory mesh
	runtimeKV                         // kv shards in commit.Peers + kv.OpenRemote
)

// workload is one benchmark cell. Sizes were chosen on a 2-CPU sandbox;
// see README.md for why each exists.
type workload struct {
	Name    string
	Why     string
	Runtime runtimeKind
	Clients int           // concurrent in-flight transactions (closed loop)
	U       time.Duration // protocol timeout unit; 0 = the geo profile's suggestion
	Geo     string        // live.NamedProfile name; "" = unshaped loopback
	Gen     genConfig
}

var workloads = []workload{
	{
		Name:    "peer-tcp-steady",
		Why:     "one commit on real sockets below saturation: wire, TCP, live.Instance, INBAC and Peer/Client on the path, kv absent",
		Runtime: runtimePeerTCP, Clients: 32, U: 10 * time.Millisecond,
	},
	{
		Name:    "peer-tcp-overload",
		Why:     "same fleet past saturation at 768 clients and U=40ms: goodput is capacity, p50 sits above 2U, backlog starts racing the 2U timer",
		Runtime: runtimePeerTCP, Clients: 768, U: 40 * time.Millisecond,
	},
	{
		Name:    "cluster-mesh-steady",
		Why:     "in-memory mesh, no sockets or Peer/Client: control for transport changes and the paper's 2fn envelopes per commit",
		Runtime: runtimeMesh, Clients: 64, U: 10 * time.Millisecond,
	},
	{
		Name:    "kv-tcp-write",
		Why:     "kv used for writes on loopback: shard Stage/Prepare/Commit and the stage legs dominate; cache cold, conflicts rare",
		Runtime: runtimeKV, Clients: 32, U: 10 * time.Millisecond,
		Gen: genConfig{Keys: 262144, TransferFrac: 0.8},
	},
	{
		Name:    "kv-geo-read",
		Why:     "kv used for reads across a 42ms WAN: GetMulti fan-out, read cache and leg count set wall time; shard CPU negligible",
		Runtime: runtimeKV, Clients: 64, Geo: "us-eu",
		Gen: genConfig{Keys: 16384, Theta: 0.8, TransferFrac: 0.05},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Process IDs of the two clients: the load generator and the cache-less
// probe the checker reads through.
const (
	clientID = nPeers + 1
	probeID  = nPeers + 2
)

// fleet is one booted deployment: the participants plus the client(s).
type fleet struct {
	u      time.Duration
	led    *ledger
	tr     *tracer
	submit func(ctx context.Context, txID string) *commit.Txn // bare-commit workloads
	store  *kv.Store                                          // kv workloads
	probe  *kv.Store                                          // kv workloads: no read cache
	closer []func()
}

func (f *fleet) close() {
	for i := len(f.closer) - 1; i >= 0; i-- {
		f.closer[i]()
	}
}

// reservePorts picks n free loopback ports by binding and releasing them:
// every peer needs the full address list before any of them listens.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// boot starts w's deployment and pre-dials it: one commit through every
// coordinator, so every peer-to-peer and client connection exists before
// the warm-up begins and none is dialled inside the measured window.
func boot(w workload) (*fleet, error) {
	f := &fleet{led: newLedger(nPeers), tr: newTracer(nPeers)}
	opts := commit.Options{Protocol: protocol, F: fCrashes, Timeout: w.U, MaxInFlight: w.Clients}
	if w.Geo != "" {
		profile, err := live.NamedProfile(w.Geo)
		if err != nil {
			return nil, err
		}
		// Both clients live in the first region ("us"); the pins must be in
		// place before any shaper is built from the shared profile.
		profile.Pin(core.ProcessID(clientID), profile.Regions[0])
		profile.Pin(core.ProcessID(probeID), profile.Regions[0])
		opts.Net = profile
		if opts.Timeout == 0 {
			opts.Timeout = profile.SuggestedTimeout()
		}
	}
	f.u = opts.Timeout

	resource := func(i int) commit.Resource {
		var r commit.Resource = commit.ResourceFunc{}
		if w.Runtime == runtimeKV {
			r = kv.NewShard(i)
		}
		return decorate(i+1, r, f.led, f.tr)
	}

	if w.Runtime == runtimeMesh {
		rs := make([]commit.Resource, nPeers)
		for i := range rs {
			rs[i] = resource(i)
		}
		cl, err := commit.NewCluster(rs, opts)
		if err != nil {
			return nil, err
		}
		f.closer = append(f.closer, cl.Close)
		f.submit = cl.Submit
		return f, f.predial(1)
	}

	addrs, err := reservePorts(nPeers)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPeers; i++ {
		p, err := commit.NewPeer(i+1, addrs, resource(i), opts)
		if err != nil {
			f.close()
			return nil, err
		}
		f.closer = append(f.closer, p.Close)
	}
	if w.Runtime == runtimePeerTCP {
		cl, err := commit.NewClient(clientID, addrs, opts)
		if err != nil {
			f.close()
			return nil, err
		}
		f.closer = append(f.closer, cl.Close)
		var next atomic.Uint32
		f.submit = func(ctx context.Context, txID string) *commit.Txn {
			// Round-robin over coordinators, like Client.Submit, but with
			// the choice made here so pre-dialling can address each peer.
			return cl.SubmitAt(ctx, txID, int(next.Add(1))%nPeers+1)
		}
		return f, f.predial(nPeers)
	}

	if f.store, err = kv.OpenRemote(clientID, addrs, opts); err != nil {
		f.close()
		return nil, err
	}
	f.closer = append(f.closer, f.store.Close)
	if f.probe, err = kv.OpenRemote(probeID, addrs, opts); err != nil {
		f.close()
		return nil, err
	}
	f.probe.ConfigureReadCache(0, 0)
	f.closer = append(f.closer, f.probe.Close)
	return f, f.predial(0)
}

// predialKeys is how many single-key transactions each kv client pre-dials
// with. A single-key transaction is coordinated by the key's owner, and
// FNV-1a spreads "predial-<client>-0..7" over all four shards twice (a fixed
// hash, so this holds on every run; live.tcp.dials_window would show a
// shard that was missed).
const predialKeys = 8

// predial commits one transaction through each of the first `coords`
// coordinators (bare-commit fleets) or, on kv fleets, predialKeys
// single-key writes per client, in parallel, and fails if any does not
// commit.
func (f *fleet) predial(coords int) error {
	ctx := context.Background()
	var tasks []func() error
	for c := 0; c < coords; c++ {
		tasks = append(tasks, func() error {
			// Retried: concurrent first contact can lose a race inside a
			// peer and answer with an error.
			var ok bool
			var err error
			for try := 0; try < 4 && !ok; try++ {
				txID := "predial-" + strconv.Itoa(c) + "-" + strconv.Itoa(try)
				ok, err = f.submit(ctx, txID).Wait(ctx)
				f.led.reply(txID, replyOf(ok, err), 0)
			}
			if !ok {
				return fmt.Errorf("pre-dial commit %d: committed=%v err=%v", c, ok, err)
			}
			return nil
		})
	}
	if f.store != nil {
		// A client's first request to a peer travels behind a hello that
		// announces its reply address, but under a shaped profile the two
		// are jittered independently and the request can arrive first; its
		// reply is then dropped and the caller waits out a multi-second
		// deadline. So first contact is made with throwaway writes under a
		// short deadline — all that matters is that the hellos land — and
		// only the second round has to commit.
		first, cancel := context.WithTimeout(ctx, 4*f.u)
		_ = parallel(f.predialWrites(first, f.store, clientID), f.predialWrites(first, f.probe, probeID))
		cancel()
		tasks = append(tasks, f.predialWrites(ctx, f.store, clientID)...)
		tasks = append(tasks, f.predialWrites(ctx, f.probe, probeID)...)
	}
	return parallel(tasks)
}

// predialWrites returns one task per pre-dial key of the given client: a
// blind single-key write that must commit.
func (f *fleet) predialWrites(ctx context.Context, st *kv.Store, id int) []func() error {
	tasks := make([]func() error, predialKeys)
	for k := range tasks {
		key := "predial-" + strconv.Itoa(id) + "-" + strconv.Itoa(k)
		tasks[k] = func() error {
			// An abort is retried: a first-contact write to the same key
			// may still hold its intent.
			for try := 0; try < 8; try++ {
				t := st.Txn()
				t.Put(key, "0|predial")
				p, err := t.Submit(ctx)
				if err != nil {
					return fmt.Errorf("pre-dial write %s: %w", key, err)
				}
				ok, err := p.Wait(ctx)
				f.led.reply(p.TxID(), replyOf(ok, err), 0)
				if err != nil {
					return fmt.Errorf("pre-dial write %s: %w", key, err)
				}
				if ok {
					return nil
				}
				time.Sleep(f.u)
			}
			return fmt.Errorf("pre-dial write %s: aborted 8 times", key)
		}
	}
	return tasks
}

// parallel runs every task list concurrently and returns the first error.
func parallel(lists ...[]func() error) error {
	var wg sync.WaitGroup
	var once sync.Once
	var first error
	for _, tasks := range lists {
		for _, task := range tasks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := task(); err != nil {
					once.Do(func() { first = err })
				}
			}()
		}
	}
	wg.Wait()
	return first
}

// replyOf maps a future's resolution to what the ledger records.
func replyOf(committed bool, err error) uint8 {
	switch {
	case err != nil:
		return clientError
	case committed:
		return clientCommitted
	}
	return clientAborted
}
