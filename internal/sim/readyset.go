package sim

import "math/bits"

// ReadySet is a growable bitset of small non-negative integers, visited
// in ascending order. Components keep one over their members (flows,
// channels, threads) so a per-cycle loop touches only members that may
// have work instead of scanning all of them. The owner keeps the set a
// superset of the members with work: it adds a member whenever work
// arrives and removes it once a visit finds none.
type ReadySet struct {
	words []uint64
}

// Add inserts i.
func (s *ReadySet) Add(i int) {
	w := i >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(i) & 63)
}

// Remove deletes i; removing an absent member is a no-op.
func (s *ReadySet) Remove(i int) {
	if w := i >> 6; w < len(s.words) {
		s.words[w] &^= 1 << (uint(i) & 63)
	}
}

// Next returns the smallest member >= from, or -1 when there is none.
// Iterate with
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1)
//
// The loop body may Remove any member, including i; a member it adds
// above i is visited in the same pass.
func (s *ReadySet) Next(from int) int {
	w := from >> 6
	if w >= len(s.words) {
		return -1
	}
	if m := s.words[w] >> (uint(from) & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	for w++; w < len(s.words); w++ {
		if m := s.words[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}
