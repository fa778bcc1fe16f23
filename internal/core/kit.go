package core

import "math/bits"

// The protocol kit: the steps the paper's pseudocode repeats in every
// protocol, written once — ProcSet is "who was heard from", VoteSet "who
// voted what" and their AND, the send helpers "send to all / all others /
// Plo..Phi". A type or function enters only when at least three protocol
// modules use it and it need not branch on which one is calling (DESIGN.md,
// internal/core).
//
// A set is sized once and no operation allocates; a VoteSet over at most 64
// processes is not even sized on the heap. A process ID outside 1..n — the
// From of a frame from a peer configured with another n, an entry of a
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
// process: a word of who voted, and the same bit of a yes word set when the
// vote is 1. Unlike a ProcSet it is a value, not a handle: up to n = 64 its
// two words are in it, so a module's sets cost no allocation of their own;
// beyond, they are on the heap. Use a set in place, through its methods
// (they take its address); a copy of one over more than 64 processes shares
// its words.
type VoteSet struct {
	n    int
	w    [2]uint64 // n <= 64: the voters' word, then the yes word
	wide *[]uint64 // n > 64: the voters' words, then as many yes words (a pointer keeps a set at 32 B)
}

// NewVoteSet returns an empty set over P1..Pn.
func NewVoteSet(n int) VoteSet {
	s := VoteSet{n: n}
	if n > 64 {
		words := make([]uint64, 2*((n+63)/64))
		s.wide = &words
	}
	return s
}

// voters returns the set of who voted, on the set's own words, and the yes
// words.
func (s *VoteSet) voters() (voters ProcSet, yes []uint64) {
	if s.wide == nil {
		return ProcSet{n: s.n, bits: s.w[:1:1]}, s.w[1:]
	}
	w := *s.wide
	k := len(w) / 2
	return ProcSet{n: s.n, bits: w[:k:k]}, w[k:]
}

// Put records p's vote, replacing an earlier one; a p outside 1..n is
// dropped.
func (s *VoteSet) Put(p ProcessID, v Value) {
	if p < 1 || int(p) > s.n {
		return
	}
	has, yes := s.voters()
	w, bit := int(p-1)/64, uint64(1)<<(uint(p-1)%64)
	has.bits[w] |= bit
	if v == Commit {
		yes[w] |= bit
	} else {
		yes[w] &^= bit
	}
}

// Get returns p's vote and whether the set has one.
func (s *VoteSet) Get(p ProcessID) (Value, bool) {
	has, yes := s.voters()
	if !has.Has(p) {
		return Abort, false
	}
	return Value(yes[(p-1)/64] >> (uint(p-1) % 64) & 1), true
}

// Has, Count, Full, Holds and Next are those of the set of voters.
func (s *VoteSet) Has(p ProcessID) bool           { has, _ := s.voters(); return has.Has(p) }
func (s *VoteSet) Count() int                     { has, _ := s.voters(); return has.Count() }
func (s *VoteSet) Full() bool                     { has, _ := s.voters(); return has.Full() }
func (s *VoteSet) Holds(k int) bool               { has, _ := s.voters(); return has.Holds(k) }
func (s *VoteSet) Next(after ProcessID) ProcessID { has, _ := s.voters(); return has.Next(after) }

// And is the AND of the votes in the set (Commit for the empty set).
func (s *VoteSet) And() Value {
	has, yes := s.voters()
	for w, h := range has.bits {
		if yes[w] != h {
			return Abort
		}
	}
	return Commit
}

// Merge adds every pair of o (a set over the same n), o's vote winning
// where both have one.
func (s *VoteSet) Merge(o *VoteSet) {
	has, yes := s.voters()
	ohas, oyes := o.voters()
	for w, h := range ohas.bits {
		has.bits[w] |= h
		yes[w] = yes[w]&^h | oyes[w]
	}
}

// Reset empties the set.
func (s *VoteSet) Reset() {
	has, yes := s.voters()
	has.Reset()
	clear(yes)
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
