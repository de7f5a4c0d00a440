package scratch

import (
	"math/bits"
	"sync/atomic"
)

// Bitset is a word-packed bitmap over [0, n) — the frontier-membership
// structure for bottom-up BFS and similar "is v in the set" hot loops,
// 32–64× smaller than the word-per-vertex arrays it replaces (so the scan
// side stays cache-resident). Plain Set/Test for single-owner phases,
// SetAtomic for concurrent marking. The zero value is an empty bitset:
// Grow it, or create one with NewBitset.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a cleared bitset over [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the bit-domain size.
func (b *Bitset) Len() int { return b.n }

// Grow extends the domain to at least n, keeping set bits.
func (b *Bitset) Grow(n int) {
	if n <= b.n {
		return
	}
	w := (n + 63) / 64
	if w > len(b.words) {
		nw := make([]uint64, w)
		copy(nw, b.words)
		b.words = nw
	}
	b.n = n
}

// Clear zeroes every bit. O(n/64) — a straight memset over the words.
func (b *Bitset) Clear() { clear(b.words) }

// Set sets bit i. Not safe against concurrent writers of the same word;
// use SetAtomic for that.
func (b *Bitset) Set(i int32) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// SetAtomic sets bit i with a CAS loop, safe against concurrent setters
// sharing the word (parallel frontier marking).
func (b *Bitset) SetAtomic(i int32) {
	w := &b.words[i>>6]
	mask := uint64(1) << (uint(i) & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int32) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}
