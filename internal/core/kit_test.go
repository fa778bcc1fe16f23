package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// refSet is the map the kit replaced, kept as the reference the bitsets are
// compared against.
type refSet map[ProcessID]Value

func (m refSet) order(n int) []ProcessID {
	var out []ProcessID
	for q := ProcessID(1); int(q) <= n; q++ {
		if _, ok := m[q]; ok {
			out = append(out, q)
		}
	}
	return out
}

func (m refSet) holds(k int) bool {
	for q := 1; q <= k; q++ {
		if _, ok := m[ProcessID(q)]; !ok {
			return false
		}
	}
	return true
}

func (m refSet) and() Value {
	v := Commit
	for _, w := range m {
		v = v.And(w)
	}
	return v
}

// TestSetsAgainstMap drives a VoteSet, a ProcSet and the map reference
// through the same random Put/Merge/Reset sequences, across the one-word
// boundary, and compares every observer after every step.
func TestSetsAgainstMap(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		votes := []VoteSet{NewVoteSet(n), NewVoteSet(n)}
		procs := []ProcSet{NewProcSet(n), NewProcSet(n)}
		refs := []refSet{{}, {}}
		for step := 0; step < 2000; step++ {
			k := rng.Intn(2)
			switch op := rng.Intn(20); {
			case op == 0:
				votes[k].Reset()
				procs[k].Reset()
				clear(refs[k])
			case op == 1:
				// ProcSet has no Merge (no module unions two); add member by member.
				votes[k].Merge(&votes[1-k])
				for q, v := range refs[1-k] {
					procs[k].Add(q)
					refs[k][q] = v
				}
			default:
				// Mostly in range, sometimes what a corrupt or misconfigured
				// peer could send: 0, negative, n+1.
				q, v := ProcessID(rng.Intn(n+3)-1), Value(rng.Intn(2))
				votes[k].Put(q, v)
				procs[k].Add(q)
				if q >= 1 && int(q) <= n {
					refs[k][q] = v
				}
			}
			vs, ps, ref := &votes[k], procs[k], refs[k]

			var gotV, gotP []ProcessID
			for p := vs.Next(0); p != 0; p = vs.Next(p) {
				gotV = append(gotV, p)
			}
			for p := ps.Next(0); p != 0; p = ps.Next(p) {
				gotP = append(gotP, p)
			}
			if want := ref.order(n); !reflect.DeepEqual(gotV, want) || !reflect.DeepEqual(gotP, want) {
				t.Fatalf("n=%d step %d: iteration %v / %v, want %v", n, step, gotV, gotP, want)
			}
			for q := ProcessID(-1); int(q) <= n+1; q++ {
				wantV, want := ref[q]
				if vs.Has(q) != want || ps.Has(q) != want {
					t.Fatalf("n=%d step %d: Has(%d) = %v / %v, want %v", n, step, q, vs.Has(q), ps.Has(q), want)
				}
				if v, ok := vs.Get(q); ok != want || v != wantV {
					t.Fatalf("n=%d step %d: Get(%d) = %v,%v, want %v,%v", n, step, q, v, ok, wantV, want)
				}
			}
			if vs.Count() != len(ref) || ps.Count() != len(ref) {
				t.Fatalf("n=%d step %d: Count %d / %d, want %d", n, step, vs.Count(), ps.Count(), len(ref))
			}
			if want := len(ref) == n; vs.Full() != want || ps.Full() != want {
				t.Fatalf("n=%d step %d: Full %v / %v, want %v", n, step, vs.Full(), ps.Full(), want)
			}
			for _, upto := range []int{0, 1, n / 2, n} {
				if want := ref.holds(upto); vs.Holds(upto) != want || ps.Holds(upto) != want {
					t.Fatalf("n=%d step %d: Holds(%d) = %v / %v, want %v", n, step, upto, vs.Holds(upto), ps.Holds(upto), want)
				}
			}
			if vs.And() != ref.and() {
				t.Fatalf("n=%d step %d: And %v, want %v", n, step, vs.And(), ref.and())
			}
		}
	}
}

// TestZeroSetsDropEverything: a set a module has not sized yet (or a module
// that was never initialised) is empty over no processes.
func TestZeroSetsDropEverything(t *testing.T) {
	var ps ProcSet
	var vs VoteSet
	ps.Add(1)
	vs.Put(1, Commit)
	if ps.Has(1) || vs.Has(1) || ps.Count() != 0 || vs.Count() != 0 || ps.Next(0) != 0 {
		t.Error("zero-value set accepted a process")
	}
}

// sendEnv records Send destinations; the other Env methods are never called
// by the helpers.
type sendEnv struct {
	Env
	id   ProcessID
	n    int
	sent []ProcessID
	msgs []Message
}

func (e *sendEnv) ID() ProcessID { return e.id }
func (e *sendEnv) N() int        { return e.n }
func (e *sendEnv) Send(to ProcessID, m Message) {
	e.sent = append(e.sent, to)
	e.msgs = append(e.msgs, m)
}

type pingMsg struct{}

func (pingMsg) Kind() string { return "PING" }

// TestSendHelpers checks destinations and order: ascending, self included by
// SendAll and SendRange, excluded by SendOthers.
func TestSendHelpers(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(Env)
		want []ProcessID
	}{
		{"all", func(e Env) { SendAll(e, pingMsg{}) }, []ProcessID{1, 2, 3, 4, 5}},
		{"others", func(e Env) { SendOthers(e, pingMsg{}) }, []ProcessID{1, 2, 4, 5}},
		{"range with self", func(e Env) { SendRange(e, 2, 4, pingMsg{}) }, []ProcessID{2, 3, 4}},
		{"range without self", func(e Env) { SendRange(e, 4, 5, pingMsg{}) }, []ProcessID{4, 5}},
		{"single", func(e Env) { SendRange(e, 3, 3, pingMsg{}) }, []ProcessID{3}},
		{"empty range", func(e Env) { SendRange(e, 3, 2, pingMsg{}) }, nil},
	} {
		env := &sendEnv{id: 3, n: 5}
		tc.send(env)
		if !reflect.DeepEqual(env.sent, tc.want) {
			t.Errorf("%s: sent to %v, want %v", tc.name, env.sent, tc.want)
		}
		for _, m := range env.msgs {
			if m != (pingMsg{}) {
				t.Errorf("%s: sent %v, want the message passed in", tc.name, m)
			}
		}
	}
}
