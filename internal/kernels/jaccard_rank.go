package kernels

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/scratch"
)

// rankEntry is one scored partner in sort form. key is the bit pattern of
// the score, complemented: scores are positive float64s, whose bit patterns
// order like the values, so ascending (key, v) is score descending, partner
// id ascending — the canonical per-vertex Jaccard order.
type rankEntry struct {
	key      uint64
	v, inter int32
}

// rankScratch is the ranker's working storage: the entries and the second
// buffer the radix passes scatter into.
type rankScratch struct{ a, b []rankEntry }

var rankPool = scratch.NewPool(func() *rankScratch { return new(rankScratch) })

const (
	// rankRadixMin is the size from which the radix passes beat the
	// comparison sort: BenchmarkJaccardRank has them level at 256 entries
	// (at 128 a pass's 2,048-counter sweep is not yet amortised; at 1,024
	// the radix sort is 3x ahead, at 8,192 5x).
	rankRadixMin = 256
	rankDigit    = 11 // bits per radix pass
)

func compareRankEntries(x, y rankEntry) int {
	return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.v, y.v))
}

// sorted orders rs.a by (key, v) ascending and returns it; the result may
// live in either buffer.
func (rs *rankScratch) sorted() []rankEntry {
	if len(rs.a) < rankRadixMin {
		slices.SortFunc(rs.a, compareRankEntries)
		return rs.a
	}
	return rs.radixSorted()
}

// radixSorted is sorted as an LSD radix sort over the bits on which entries
// differ, v's then key's, so the cost is linear in len(a): one pass per
// rankDigit varying bits, none for bits every entry shares (the sign and
// high exponent bits of a score in (0,1], the high bits of a vertex id).
func (rs *rankScratch) radixSorted() []rankEntry {
	a, b := rs.a, slices.Grow(rs.b[:0], len(rs.a))[:len(rs.a)]
	andK, orK, andV, orV := ^uint64(0), uint64(0), ^uint32(0), uint32(0)
	for i := range a {
		andK, orK = andK&a[i].key, orK|a[i].key
		andV, orV = andV&uint32(a[i].v), orV|uint32(a[i].v)
	}
	// and^or has a bit set where some two entries differ; positions 0-31 of
	// the 96-bit sort key are v, 32-95 are key.
	for _, word := range [2]struct {
		base int
		diff uint64
	}{{0, uint64(andV ^ orV)}, {32, andK ^ orK}} {
		for p := bits.TrailingZeros64(word.diff); p < bits.Len64(word.diff); p += rankDigit {
			radixPass(b, a, word.base+p)
			a, b = b, a
		}
	}
	rs.a, rs.b = a, b
	return a
}

// radixPass scatters src into dst, stably, by the rankDigit bits at position
// p of the sort key.
func radixPass(dst, src []rankEntry, p int) {
	digit := func(e *rankEntry) uint64 {
		if p < 32 {
			return uint64(uint32(e.v)>>p) & (1<<rankDigit - 1)
		}
		return e.key >> (p - 32) & (1<<rankDigit - 1)
	}
	var start [1 << rankDigit]int32
	for i := range src {
		start[digit(&src[i])]++
	}
	sum := int32(0)
	for d, c := range start {
		start[d], sum = sum, sum+c
	}
	for i := range src {
		d := digit(&src[i])
		dst[start[d]] = src[i]
		start[d]++
	}
}
