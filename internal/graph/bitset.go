package graph

import "math/bits"

// Bitset is a fixed-capacity set of small non-negative integers, used for
// adjacency rows. The zero value of a slice-backed bitset is not usable;
// construct with NewBitset.
type Bitset []uint64

// NewBitset returns an empty bitset able to hold values in [0, n).
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Set inserts i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Clear removes i.
func (b Bitset) Clear(i int) { b[i/64] &^= 1 << (i % 64) }

// Has reports whether i is present.
func (b Bitset) Has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// Count returns the number of elements.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy.
func (b Bitset) Clone() Bitset {
	return append(Bitset(nil), b...)
}

// fullWord returns word w of the set holding every value in [0, n): all
// ones, except for the high bits of the last word.
func fullWord(n, w int) uint64 {
	if rem := n - 64*w; rem < 64 {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

// SetUnion makes b the union of x and y, word by word. All three must
// have the same length.
func (b Bitset) SetUnion(x, y Bitset) {
	x, y = x[:len(b)], y[:len(b)]
	for i := range b {
		b[i] = x[i] | y[i]
	}
}

// UnionIsFull reports whether b ∪ o holds every value in [0, n),
// comparing word by word against the all-ones set and stopping at the
// first gap. Both must have (n+63)/64 words; it allocates nothing.
func (b Bitset) UnionIsFull(o Bitset, n int) bool {
	o = o[:len(b)]
	for w := range b {
		if b[w]|o[w] != fullWord(n, w) {
			return false
		}
	}
	return true
}

// IntersectsWith reports whether b and o share an element.
func (b Bitset) IntersectsWith(o Bitset) bool {
	m := len(b)
	if len(o) < m {
		m = len(o)
	}
	for i := 0; i < m; i++ {
		if b[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Each calls f for every element in increasing order.
func (b Bitset) Each(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			i := bits.TrailingZeros64(word)
			f(w*64 + i)
			word &= word - 1
		}
	}
}
