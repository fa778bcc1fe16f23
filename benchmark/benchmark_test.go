package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"atomiccommit/commit"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got, err := percentile(xs, 0.99); err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond it)", got, err)
	}
	if got, err := percentile(xs, 0.50); err != nil || got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, %v; want 500", got, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("a percentile of no samples must be refused")
	}
	if got := percentileOrZero(xs[:5], 0.99); got != 0 {
		t.Fatalf("percentileOrZero on a thin tail = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// sequence draws the first n transactions of every client of a workload.
func sequence(w workload, seed int64, clients, n int) [][]txnSpec {
	z := zipfFor(w)
	out := make([][]txnSpec, clients)
	for c := range out {
		g := newGenerator(w.Gen, z, seed, c)
		for i := 0; i < n; i++ {
			out[c] = append(out[c], g.next())
		}
	}
	return out
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, name := range []string{"kv-tcp-write", "kv-geo-read"} {
		w, _ := workloadByName(name)
		a, b := sequence(w, 7, 3, 200), sequence(w, 7, 3, 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different transaction sequences", name)
		}
		if reflect.DeepEqual(a, sequence(w, 8, 3, 200)) {
			t.Errorf("%s: seeds 7 and 8 gave the same transaction sequence", name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: two clients of one seed drew the same sequence", name)
		}
		transfers := 0
		for _, spec := range a[0] {
			want := 4
			if spec.Kind == kindTransfer {
				transfers++
				want = 2
				if spec.Amount < 1 || spec.Amount > 100 {
					t.Fatalf("%s: transfer amount %d out of 1..100", name, spec.Amount)
				}
			}
			seen := map[string]bool{}
			for _, k := range spec.Keys {
				seen[k] = true
			}
			if len(spec.Keys) != want || len(seen) != want {
				t.Fatalf("%s: kind %d drew keys %v, want %d distinct", name, spec.Kind, spec.Keys, want)
			}
		}
		if frac := float64(transfers) / 200; frac < w.Gen.TransferFrac-0.1 || frac > w.Gen.TransferFrac+0.1 {
			t.Errorf("%s: %.2f of transactions are transfers, want about %.2f", name, frac, w.Gen.TransferFrac)
		}
	}
	if spec := newGenerator(genConfig{}, nil, 1, 0).next(); spec.Kind != kindCommit || spec.Keys != nil {
		t.Errorf("a keyless workload generated %+v, want a bare commit", spec)
	}
}

func TestZipfIsSkewed(t *testing.T) {
	w, _ := workloadByName("kv-geo-read")
	z := zipfFor(w)
	g := newGenerator(w.Gen, z, 1, 0)
	const draws = 20000
	hot := 0
	for i := 0; i < draws; i++ {
		k := g.key()
		if k < 0 || k >= w.Gen.Keys {
			t.Fatalf("rank %d outside 0..%d", k, w.Gen.Keys-1)
		}
		if k < w.Gen.Keys/100 {
			hot++
		}
	}
	// Under theta = 0.8 the hottest 1% of 16384 keys draw about 36% of the
	// traffic; uniform would give them 1%.
	if frac := float64(hot) / draws; frac < 0.25 || frac > 0.50 {
		t.Errorf("hottest 1%% of keys drew %.3f of the traffic, want about 0.36", frac)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {130, 170}, {140, 145}}, 40},
		{"clipped to the parent", []interval{{50, 120}, {190, 300}}, 70},
		{"outside the parent", []interval{{0, 100}, {200, 250}}, 100},
		{"covering the parent", []interval{{90, 210}}, 0},
		{"unsorted input", []interval{{160, 180}, {100, 110}}, 70},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// scripted is a HostedResource that records every call and answers from a
// script.
type scripted struct {
	calls    []string
	vote     bool
	stageErr error
	reply    commit.Message
}

func (s *scripted) Prepare(txID string) bool {
	s.calls = append(s.calls, "prepare "+txID)
	return s.vote
}
func (s *scripted) Commit(txID string) { s.calls = append(s.calls, "commit "+txID) }
func (s *scripted) Abort(txID string)  { s.calls = append(s.calls, "abort "+txID) }
func (s *scripted) Stage(txID string, m commit.Message) error {
	s.calls = append(s.calls, "stage "+txID+" "+m.Kind())
	return s.stageErr
}
func (s *scripted) Query(m commit.Message) (commit.Message, error) {
	s.calls = append(s.calls, "query "+m.Kind())
	return s.reply, nil
}

type note string

func (n note) Kind() string { return string(n) }

func TestDecoratorPassesCallsThrough(t *testing.T) {
	for _, tracing := range []bool{false, true} {
		inner := &scripted{vote: false, stageErr: errors.New("refused"), reply: note("reply")}
		led, tr := newLedger(nPeers), newTracer(nPeers)
		tr.enabled.Store(tracing)
		d, ok := decorate(2, inner, led, tr).(commit.HostedResource)
		if !ok {
			t.Fatal("a decorated HostedResource must stay a HostedResource")
		}
		if d.Prepare("t1") {
			t.Error("Prepare: the inner no vote came back as yes")
		}
		inner.vote = true
		if !d.Prepare("t2") {
			t.Error("Prepare: the inner yes vote came back as no")
		}
		d.Commit("t2")
		d.Abort("t1")
		if err := d.Stage("t3", note("fp")); err != inner.stageErr {
			t.Errorf("Stage returned %v, want the inner error", err)
		}
		if got, err := d.Query(note("q")); err != nil || got != inner.reply {
			t.Errorf("Query returned %v, %v; want the inner reply", got, err)
		}
		want := []string{"prepare t1", "prepare t2", "commit t2", "abort t1", "stage t3 fp", "query q"}
		if !reflect.DeepEqual(inner.calls, want) {
			t.Errorf("tracing=%v: inner saw %v, want %v", tracing, inner.calls, want)
		}
		wantSpans := 0
		if tracing {
			wantSpans = len(want)
		}
		if got := len(tr.peers[1].spans); got != wantSpans {
			t.Errorf("tracing=%v: %d spans recorded, want %d", tracing, got, wantSpans)
		}
		if led.votes.Load() != 2 || led.voteNo.Load() != 1 {
			t.Errorf("ledger saw %d votes, %d no; want 2, 1", led.votes.Load(), led.voteNo.Load())
		}
	}
	if _, hosted := decorate(1, commit.ResourceFunc{}, newLedger(nPeers), newTracer(nPeers)).(commit.HostedResource); hosted {
		t.Error("decorating a plain Resource must not make it a HostedResource")
	}
}

func TestLedgerJudgesAgreement(t *testing.T) {
	led := newLedger(2)
	// Unanimous commit.
	led.vote("a", 1, true)
	led.vote("a", 2, true)
	led.outcome("a", 1, true)
	led.reply("a", clientCommitted, 0)
	led.outcome("a", 2, true)
	// All yes, unanimous abort: a timing abort.
	led.vote("b", 1, true)
	led.vote("b", 2, true)
	led.outcome("b", 1, false)
	led.outcome("b", 2, false)
	led.reply("b", clientAborted, 0)
	// Peer 1 aborts a transfer of 30 the client saw commit.
	led.reply("c", clientCommitted, 30)
	led.outcome("c", 2, true)
	led.outcome("c", 1, false)
	// A no vote, aborted everywhere; the client's call errored.
	led.vote("d", 1, false)
	led.outcome("d", 1, false)
	led.outcome("d", 2, false)
	led.reply("d", clientError, 0)
	if led.pending() != 0 {
		t.Fatalf("%d complete entries were kept", led.pending())
	}
	// Peers that disagree, no reply yet; and a transfer of 7 the client saw
	// commit that peer 2 never confirmed: both judged only by finish.
	led.outcome("e", 1, true)
	led.outcome("e", 2, false)
	led.reply("f", clientCommitted, 7)
	led.outcome("f", 1, true)
	if led.pending() != 2 || led.finish() != 2 {
		t.Fatal("the incomplete entries should be pending until finish")
	}
	got := []int64{led.violations.Load(), led.violatedSum.Load(), led.unsettledSum.Load(), led.timingAborts.Load()}
	if want := []int64{2, 30, 7, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("violations, violated sum, unsettled sum, timing aborts = %v, want %v", got, want)
	}
}

func TestBalanceEncoding(t *testing.T) {
	if b, err := decodeBalance(encodeBalance(-42, "3.17"), true); err != nil || b != -42 {
		t.Errorf("round trip gave %d, %v", b, err)
	}
	if b, err := decodeBalance("", false); err != nil || b != 0 {
		t.Errorf("an absent key holds %d, %v; want 0", b, err)
	}
	if _, err := decodeBalance("junk", true); err == nil {
		t.Error("a malformed balance must be an error")
	}
}

// TestScaledCPUPerCommit checks the yardstick arithmetic: the sampler's own
// CPU comes off, only rounds inside the slice count, and a host that runs
// the yardstick slower than nominal scales the result down by that share.
func TestScaledCPUPerCommit(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ws := &windowStats{
		open:   snapshot{at: t0, cpu: 2 * time.Second},
		closed: snapshot{at: t0.Add(time.Second), cpu: 2*time.Second + 500*time.Millisecond},
	}
	ws.acc.commits = 1000
	round := 2 * yardstickNominal // the host runs at half the nominal speed
	var samples []yardSample
	for i := 1; i <= 20; i++ {
		samples = append(samples, yardSample{at: t0.Add(time.Duration(i) * 20 * time.Millisecond), cpu: round})
	}
	outside := []yardSample{{at: t0.Add(-time.Millisecond), cpu: time.Second}, {at: t0.Add(2 * time.Second), cpu: time.Second}}
	got, roundUs, err := scaledCPUPerCommit(ws, append(outside, samples...))
	if err != nil {
		t.Fatal(err)
	}
	want := float64((500*time.Millisecond - 20*round).Microseconds()) / 1000 / 2
	if math.Abs(got-want) > 1e-9 || roundUs != float64(round.Microseconds()) {
		t.Errorf("got %v us per commit at a %v us round, want %v at %v", got, roundUs, want, round.Microseconds())
	}
	if _, _, err := scaledCPUPerCommit(ws, samples[:yardstickMinSamples-1]); err == nil {
		t.Errorf("a slice with %d yardstick rounds must be refused", yardstickMinSamples-1)
	}
}

// TestYardstickSamples runs the sampler briefly: it times rounds, stamps
// them in order, and has stopped when stop returns.
func TestYardstickSamples(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	stop := y.start()
	time.Sleep(5 * yardstickPeriod)
	samples := stop()
	if len(samples) < 2 {
		t.Fatalf("%d samples in %v at one per %v", len(samples), 5*yardstickPeriod, yardstickPeriod)
	}
	for i, s := range samples {
		if s.cpu <= 0 {
			t.Errorf("sample %d: a round took %v of CPU", i, s.cpu)
		}
		if i > 0 && s.at.Before(samples[i-1].at) {
			t.Errorf("sample %d is stamped before sample %d", i, i-1)
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json, which the driver reads, in
// step with the names and units the program prints.
func TestBenchmarkFileMatches(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []metricDef
	for _, m := range bf.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end is %v, the program reports %v", got, endToEnd)
	}
	got = nil
	for _, m := range bf.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer is %v, the program reports %v", got, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %q (%q) in the program", i, got, w.Name, w.Why)
		}
	}
}
