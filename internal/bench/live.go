package bench

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/kv"
)

// Config parameterizes a live run: one cell per (protocol, theta, depth),
// each on a freshly booted fleet. The runner exists to put any registered
// protocol under load on any runtime with the auditor watching
// (commitbench -audit); performance numbers come from benchmark/, which
// measures steady state and explains it layer by layer.
type Config struct {
	// Runtime is how a cell's fleet is booted and what one transaction is:
	//   mesh  commit.NewCluster on the in-memory mesh; a bare Commit
	//   tcp   one commit.Peer per participant on loopback sockets, driven
	//         by a commit.Client; a bare commit
	//   kv    one kv shard per commit.Peer on loopback sockets, driven
	//         through kv.OpenRemote; a generated read/write transaction
	Runtime   string
	Protocols []string      // registry names
	Depths    []int         // transactions in flight (closed loop)
	Txns      int           // measured transactions per cell
	N, F      int           // participants (kv: shards) and resilience
	Timeout   time.Duration // protocol timeout unit U; 0 = 5ms, or what the Geo profile suggests

	// Geo names a live.NamedProfile that shapes the links, with the client
	// in the profile's first region; "" leaves them alone.
	Geo string

	// The kv runtime's workload. Thetas are Zipf skews of the key choice,
	// one cell each.
	Thetas   []float64
	Keys     int     // keyspace size; 0 = kv.Workload's default
	ReadFrac float64 // fraction of operations that are reads

	// resource, set by tests, supplies participant i's resource on mesh and
	// tcp; nil means one that votes yes.
	resource func(i int) commit.Resource
}

// check validates c and settles its timeout unit.
func (c Config) check() (Config, error) {
	switch c.Runtime {
	case "mesh", "tcp", "kv":
	default:
		return c, fmt.Errorf("bench: unknown runtime %q (mesh, tcp or kv)", c.Runtime)
	}
	if c.Runtime != "kv" || len(c.Thetas) == 0 {
		c.Thetas = []float64{0}
	}
	if len(c.Protocols) == 0 || len(c.Depths) == 0 || slices.Min(c.Depths) < 1 || c.Txns < 1 {
		return c, fmt.Errorf("bench: need a protocol, Depths >= 1 and Txns >= 1 (got %v, %v, %d)", c.Protocols, c.Depths, c.Txns)
	}
	if c.Geo != "" {
		profile, err := live.NamedProfile(c.Geo)
		if err != nil {
			return c, fmt.Errorf("bench: %w", err)
		}
		if c.Timeout <= 0 {
			c.Timeout = profile.SuggestedTimeout()
		}
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Millisecond
	}
	return c, nil
}

// Row is one cell's result. Committed txn/s is the headline: a cell that
// decides fast by aborting everything reads 0 there. Every measured
// transaction is in exactly one of Committed, VoteAborts, TimingAborts and
// InfraAborts.
type Row struct {
	Protocol string
	Runtime  string
	Theta    float64 // kv only
	Depth    int

	CommittedPerSec float64
	DecidedPerSec   float64       // committed + vote aborts + timing aborts
	P50, P99        time.Duration // client-observed, start of the transaction to its decision

	Committed int
	// VoteAborts had a participant vote no (on kv, a conflict on shard
	// state — a Prepare that voted no, or a shard refusing a read-only
	// transaction's validation). TimingAborts were aborted although every
	// vote seen was yes:
	// an indulgent protocol's legal reaction to a violated timing bound.
	// InfraAborts never got a decision — a deadline, a refused stage — and
	// are left out of DecidedPerSec and the percentiles.
	VoteAborts, TimingAborts, InfraAborts int
}

// Run drives every cell of cfg in closed loop and returns the rows plus a
// formatted table. A transaction that ends in an infrastructure error is
// counted in its row and the run goes on, so that an auditor sees the whole
// run; the first such error is returned alongside the complete rows.
func Run(cfg Config) ([]Row, string, error) {
	cfg, err := cfg.check()
	if err != nil {
		return nil, "", err
	}
	var t table
	t.title(fmt.Sprintf("Live commit under closed-loop load (%s runtime, n=%d f=%d, %d txns/cell, U=%v)",
		cfg.Runtime, cfg.N, cfg.F, cfg.Txns, cfg.Timeout))
	t.row("%-18s %5s %5s %12s %10s %10s %10s %9s %6s %6s %6s",
		"protocol", "theta", "depth", "committed/s", "decided/s", "p50", "p99", "committed", "vote", "timing", "infra")
	var rows []Row
	var firstErr error
	for _, proto := range cfg.Protocols {
		for _, theta := range cfg.Thetas {
			for _, depth := range cfg.Depths {
				fl := &fleet{}
				err := fl.boot(cfg, proto, theta, depth, int(cellSeq.Add(1)))
				if err != nil {
					fl.close()
					return nil, "", fmt.Errorf("bench: boot %s on %s: %w", proto, cfg.Runtime, err)
				}
				r, err := fl.measure(cfg, depth)
				fl.close()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("bench: %s on %s, depth %d: %w", proto, cfg.Runtime, depth, err)
				}
				r.Protocol, r.Runtime, r.Theta, r.Depth = proto, cfg.Runtime, theta, depth
				rows = append(rows, r)
				t.row("%-18s %5.2f %5d %12.0f %10.0f %10s %10s %9d %6d %6d %6d",
					r.Protocol, r.Theta, r.Depth, r.CommittedPerSec, r.DecidedPerSec,
					r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
					r.Committed, r.VoteAborts, r.TimingAborts, r.InfraAborts)
			}
		}
	}
	t.blank()
	t.row("vote: a participant voted no, or a kv shard refused a read-only transaction's validation.")
	t.row("timing: every vote seen was yes and the protocol aborted anyway.")
	t.row("infra: no decision (an error). For performance numbers see benchmark/README.md.")
	return rows, t.String(), firstErr
}

// cellSeq numbers the cells of this process. It goes into every txID and
// is the kv client's process ID, so no two cells name a transaction alike,
// whichever Run they belong to: one auditor can watch them all.
var cellSeq atomic.Int64

// fleet is one cell's booted deployment.
type fleet struct {
	// txn runs transaction number seq on behalf of worker and reports its
	// txID and whether it committed.
	txn  func(ctx context.Context, worker, seq int) (txID string, committed bool, err error)
	stop []func()
	// noVotes holds the txIDs some participant voted no on.
	noVotes sync.Map
}

func (fl *fleet) close() {
	for i := len(fl.stop) - 1; i >= 0; i-- {
		fl.stop[i]()
	}
}

// voteLog passes a participant's resource through, noting its no votes.
type voteLog struct {
	commit.Resource
	fl *fleet
}

func (v voteLog) Prepare(txID string) bool {
	yes := v.Resource.Prepare(txID)
	if !yes {
		v.fl.noVotes.Store(txID, struct{}{})
	}
	return yes
}

// hostedVoteLog is voteLog for a resource that serves remote clients. A
// separate type because commit.NewPeer finds out whether to serve them by
// asserting commit.HostedResource.
type hostedVoteLog struct {
	commit.HostedResource
	fl *fleet
}

func (v hostedVoteLog) Prepare(txID string) bool {
	return voteLog{v.HostedResource, v.fl}.Prepare(txID)
}

// boot starts the fleet of cell id. What it started before an error is
// fl.close's to stop.
func (fl *fleet) boot(cfg Config, proto string, theta float64, depth, id int) error {
	opts := commit.Options{Protocol: commit.Protocol(proto), F: cfg.F, Timeout: cfg.Timeout}
	clientID := cfg.N + id
	if cfg.Geo != "" {
		profile, err := live.NamedProfile(cfg.Geo)
		if err != nil {
			return err
		}
		// Before any shaper is built from the shared profile.
		profile.Pin(core.ProcessID(clientID), profile.Regions[0])
		opts.Net = profile
	}
	resource := func(i int) commit.Resource {
		switch {
		case cfg.Runtime == "kv":
			return hostedVoteLog{kv.NewShard(i), fl}
		case cfg.resource != nil:
			return voteLog{cfg.resource(i), fl}
		}
		return voteLog{commit.ResourceFunc{}, fl}
	}
	// bare makes one transaction a bare commit of a txID of this cell's.
	bare := func(do func(ctx context.Context, txID string) (bool, error)) {
		fl.txn = func(ctx context.Context, _, seq int) (string, bool, error) {
			txID := fmt.Sprintf("%s-d%d-c%d-%d", proto, depth, id, seq)
			ok, err := do(ctx, txID)
			return txID, ok, err
		}
	}

	if cfg.Runtime == "mesh" {
		rs := make([]commit.Resource, cfg.N)
		for i := range rs {
			rs[i] = resource(i)
		}
		cl, err := commit.NewCluster(rs, opts)
		if err != nil {
			return err
		}
		fl.stop = append(fl.stop, cl.Close)
		bare(cl.Commit)
		return nil
	}

	addrs, err := loopbackAddrs(cfg.N)
	if err != nil {
		return err
	}
	for i := range addrs {
		p, err := commit.NewPeer(i+1, addrs, resource(i), opts)
		if err != nil {
			return err
		}
		fl.stop = append(fl.stop, p.Close)
	}

	if cfg.Runtime == "tcp" {
		cl, err := commit.NewClient(clientID, addrs, opts)
		if err != nil {
			return err
		}
		fl.stop = append(fl.stop, cl.Close)
		bare(func(ctx context.Context, txID string) (bool, error) { return cl.Submit(ctx, txID).Wait(ctx) })
		return nil
	}

	store, err := kv.OpenRemote(clientID, addrs, opts)
	if err != nil {
		return err
	}
	fl.stop = append(fl.stop, store.Close)
	gens := make([]*kv.Gen, depth) // a Gen is single-goroutine: one per worker
	for w := range gens {
		gens[w], err = kv.Workload{Keys: cfg.Keys, Theta: theta, ReadFrac: cfg.ReadFrac}.Generator(int64(w) + 1)
		if err != nil {
			return err
		}
	}
	fl.txn = func(ctx context.Context, w, _ int) (string, bool, error) {
		t := store.Txn().WithContext(ctx)
		ops := gens[w].NextTxn()
		gens[w].Apply(t, ops)
		p, err := t.Submit(ctx)
		if err != nil {
			return "", false, err
		}
		ok, err := p.Wait(ctx)
		if err == nil && !ok && !slices.ContainsFunc(ops, func(op kv.Op) bool { return !op.Read }) {
			// A read-only transaction runs no protocol, so no Prepare voted
			// no: its abort is a shard refusing the validation, a conflict
			// like any no vote.
			fl.noVotes.Store(p.TxID(), struct{}{})
		}
		return p.TxID(), ok, err
	}
	return nil
}

// loopbackAddrs picks n free loopback ports by binding and releasing them:
// every peer needs the full address list before any of them listens.
func loopbackAddrs(n int) ([]string, error) {
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

// drive runs transactions from..to-1 through fl, depth at a time, and
// returns their counts, rates and percentiles plus the first infrastructure
// error among them.
func (fl *fleet) drive(ctx context.Context, depth, from, to int) (Row, error) {
	var (
		mu        sync.Mutex
		r         Row
		firstErr  error
		latencies []time.Duration // of the decided ones
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	next.Store(int64(from))
	begin := time.Now()
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				seq := int(next.Add(1)) - 1
				if seq >= to {
					return
				}
				start := time.Now()
				txID, committed, err := fl.txn(ctx, w, seq)
				took := time.Since(start)
				_, votedNo := fl.noVotes.LoadAndDelete(txID)

				mu.Lock()
				switch {
				case err != nil:
					r.InfraAborts++
					if firstErr == nil {
						firstErr = err
					}
				case committed:
					r.Committed++
				case votedNo:
					r.VoteAborts++
				default:
					r.TimingAborts++
				}
				if err == nil {
					latencies = append(latencies, took)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(begin).Seconds()

	r.CommittedPerSec = float64(r.Committed) / elapsed
	r.DecidedPerSec = float64(len(latencies)) / elapsed
	if n := len(latencies); n > 0 {
		slices.Sort(latencies)
		r.P50, r.P99 = latencies[(n-1)/2], latencies[(n-1)*99/100]
	}
	return r, firstErr
}

// measure warms the fleet up, unmeasured — connections are dialled on first
// use, and a tcp client reaches every coordinator within N transactions —
// and then drives the cfg.Txns transactions that count.
func (fl *fleet) measure(cfg Config, depth int) (Row, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	warm := max(depth, cfg.N)
	fl.drive(ctx, depth, 0, warm)
	return fl.drive(ctx, depth, warm, warm+cfg.Txns)
}
