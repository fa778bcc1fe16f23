package core

import "math/bits"

// The protocol kit: the steps the paper's pseudocode repeats in every
// protocol, written once — ProcSet is "who was heard from", VoteSet "who
// voted what" and their AND, the send helpers "send to all / all others /
// Plo..Phi". A type or function enters only when at least three protocol
// modules use it and it need not branch on which one is calling (DESIGN.md,
// internal/core).
//
// A set is sized once and no operation allocates. A process ID outside 1..n
// — the From of a frame from a peer configured with another n, an entry of a
// corrupt collection — is dropped by Add and Put, so a module never
// range-checks a sender itself. The zero value is a set over no processes:
// it drops everything.

// ProcSet is a set of processes out of P1..Pn: bit p-1 says Pp is in it.
// It is a handle on its words (copies share them), one word while n <= 64.
type ProcSet struct {
	n    int
	bits []uint64
}

// NewProcSet returns an empty set over P1..Pn.
func NewProcSet(n int) ProcSet { return ProcSet{n: n, bits: make([]uint64, (n+63)/64)} }

// Add puts p in the set; a p outside 1..n is dropped.
func (s ProcSet) Add(p ProcessID) {
	if p >= 1 && int(p) <= s.n {
		s.bits[(p-1)/64] |= 1 << (uint(p-1) % 64)
	}
}

// Has reports whether p is in the set.
func (s ProcSet) Has(p ProcessID) bool {
	return p >= 1 && int(p) <= s.n && s.bits[(p-1)/64]>>(uint(p-1)%64)&1 == 1
}

// Count is the number of processes in the set.
func (s ProcSet) Count() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether all of P1..Pn are in the set: the collection is
// complete.
func (s ProcSet) Full() bool { return s.Holds(s.n) }

// Holds reports whether all of P1..Pk are in the set (k <= n).
func (s ProcSet) Holds(k int) bool {
	for _, w := range s.bits {
		want := ^uint64(0)
		if k < 64 {
			want = 1<<uint(k) - 1
		}
		if w&want != want {
			return false
		}
		if k -= 64; k <= 0 {
			break
		}
	}
	return true
}

// Next returns the smallest member greater than after (0 or a member), or 0
// when there is none: `for p := s.Next(0); p != 0; p = s.Next(p)` visits the
// set in process order.
func (s ProcSet) Next(after ProcessID) ProcessID {
	// Members greater than after sit at bit indices >= after.
	for w, skip := int(after)/64, uint(after)%64; w < len(s.bits); w, skip = w+1, 0 {
		if rest := s.bits[w] >> skip << skip; rest != 0 {
			return ProcessID(w*64 + bits.TrailingZeros64(rest) + 1)
		}
	}
	return 0
}

// Reset empties the set.
func (s ProcSet) Reset() { clear(s.bits) }

// VoteSet is a set of (process, vote) pairs with at most one vote per
// process: a ProcSet of who voted, and the same bit of yes set when the
// vote is 1.
type VoteSet struct {
	has ProcSet
	yes []uint64
}

// NewVoteSet returns an empty set over P1..Pn.
func NewVoteSet(n int) VoteSet { return voteSetOver(n, make([]uint64, 2*((n+63)/64))) }

// NewVoteSets returns k empty sets over P1..Pn sharing one backing array,
// for a module that keeps several per instance (INBAC keeps f+4).
func NewVoteSets(n, k int) []VoteSet {
	words := (n + 63) / 64
	backing := make([]uint64, 2*words*k)
	sets := make([]VoteSet, k)
	for i := range sets {
		sets[i] = voteSetOver(n, backing[2*words*i:])
	}
	return sets
}

// voteSetOver lays a set over P1..Pn on the first words of backing.
func voteSetOver(n int, backing []uint64) VoteSet {
	words := (n + 63) / 64
	return VoteSet{has: ProcSet{n: n, bits: backing[:words:words]}, yes: backing[words : 2*words : 2*words]}
}

// Put records p's vote, replacing an earlier one; a p outside 1..n is
// dropped.
func (s VoteSet) Put(p ProcessID, v Value) {
	if p < 1 || int(p) > s.has.n {
		return
	}
	w, bit := int(p-1)/64, uint64(1)<<(uint(p-1)%64)
	s.has.bits[w] |= bit
	if v == Commit {
		s.yes[w] |= bit
	} else {
		s.yes[w] &^= bit
	}
}

// Get returns p's vote and whether the set has one.
func (s VoteSet) Get(p ProcessID) (Value, bool) {
	if !s.has.Has(p) {
		return Abort, false
	}
	return Value(s.yes[(p-1)/64] >> (uint(p-1) % 64) & 1), true
}

// Has, Count, Full, Holds and Next are those of the set of voters.
func (s VoteSet) Has(p ProcessID) bool           { return s.has.Has(p) }
func (s VoteSet) Count() int                     { return s.has.Count() }
func (s VoteSet) Full() bool                     { return s.has.Full() }
func (s VoteSet) Holds(k int) bool               { return s.has.Holds(k) }
func (s VoteSet) Next(after ProcessID) ProcessID { return s.has.Next(after) }

// And is the AND of the votes in the set (Commit for the empty set).
func (s VoteSet) And() Value {
	for w, h := range s.has.bits {
		if s.yes[w] != h {
			return Abort
		}
	}
	return Commit
}

// Merge adds every pair of o (a set over the same n), o's vote winning
// where both have one.
func (s VoteSet) Merge(o VoteSet) {
	for w, h := range o.has.bits {
		s.has.bits[w] |= h
		s.yes[w] = s.yes[w]&^h | o.yes[w]
	}
}

// Reset empties the set.
func (s VoteSet) Reset() {
	s.has.Reset()
	clear(s.yes)
}

// SendAll sends m to P1..Pn in ascending order, the sender included (a
// self-send is free and immediate, see Env.Send).
func SendAll(env Env, m Message) { SendRange(env, 1, env.N(), m) }

// SendOthers sends m to every process but the sender, in ascending order.
func SendOthers(env Env, m Message) {
	for q := 1; q <= env.N(); q++ {
		if ProcessID(q) != env.ID() {
			env.Send(ProcessID(q), m)
		}
	}
}

// SendRange sends m to Plo..Phi in ascending order, the sender included
// when it is in the range; nothing when lo > hi.
func SendRange(env Env, lo, hi int, m Message) {
	for q := lo; q <= hi; q++ {
		env.Send(ProcessID(q), m)
	}
}
