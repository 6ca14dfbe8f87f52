package bitgraph

import "math/bits"

// wordBits is the number of bits per Set word.
const wordBits = 64

// Set is a fixed-capacity bitset over node indices, stored as 64-bit
// words. A Set created for an n-node graph has ceil(n/64) words; all
// operations assume operands were created for the same n. The zero-length
// Set is valid and empty.
type Set []uint64

// wordsFor returns the number of words needed for n bits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// NewSet returns an empty set with capacity for n nodes.
func NewSet(n int) Set { return make(Set, wordsFor(n)) }

// SetOf returns a set over n nodes containing the given members.
func SetOf(n int, members ...int) Set {
	s := NewSet(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// MaskSet converts a single-word bitmask (node i present iff bit i set)
// to a Set over n nodes; n may exceed 64, in which case the high nodes
// are absent. Convenience for tests and small-n callers.
func MaskSet(n int, mask uint64) Set {
	s := NewSet(n)
	if len(s) > 0 {
		if n < wordBits {
			mask &= 1<<uint(n) - 1
		}
		s[0] = mask
	}
	return s
}

// FullSet returns the set of all n nodes.
func FullSet(n int) Set {
	s := NewSet(n)
	for i := range s {
		s[i] = ^uint64(0)
	}
	if r := n % wordBits; r != 0 && len(s) > 0 {
		s[len(s)-1] = 1<<uint(r) - 1
	}
	return s
}

// Has reports whether node i is in the set.
func (s Set) Has(i int) bool { return s[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

// Add inserts node i.
func (s Set) Add(i int) { s[i/wordBits] |= 1 << uint(i%wordBits) }

// Flip toggles node i.
func (s Set) Flip(i int) { s[i/wordBits] ^= 1 << uint(i%wordBits) }

// Count returns the number of set bits.
func (s Set) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bits are set.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports element-wise equality (operands must share capacity).
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i, w := range s {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Clear removes every element.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// ComplementWithin returns full &^ s: the complement of s restricted to
// the node universe described by full.
func (s Set) ComplementWithin(full Set) Set {
	c := make(Set, len(s))
	for i := range c {
		c[i] = full[i] &^ s[i]
	}
	return c
}

// SamePartition reports whether a and b describe the same two-way
// partition of the node universe full: equal sets, or complements of
// each other within it. This is the single definition of cut-pool
// partition identity (used by both the synthesis cut pool and Eval's
// crossing-counter pool).
func SamePartition(a, b, full Set) bool {
	if len(a) != len(b) || len(a) != len(full) {
		return false
	}
	eq, comp := true, true
	for i := range a {
		if a[i] != b[i] {
			eq = false
		}
		if a[i] != full[i]&^b[i] {
			comp = false
		}
		if !eq && !comp {
			return false
		}
	}
	return true
}

// AndCount returns |s ∩ o| without allocating.
func AndCount(s, o Set) int {
	c := 0
	for i, w := range s {
		c += bits.OnesCount64(w & o[i])
	}
	return c
}

// ForEach calls fn for every member in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// String renders the set as a {a,b,...} member list (for debugging).
func (s Set) String() string {
	out := []byte{'{'}
	first := true
	s.ForEach(func(i int) {
		if !first {
			out = append(out, ',')
		}
		first = false
		out = appendInt(out, i)
	})
	return string(append(out, '}'))
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}
