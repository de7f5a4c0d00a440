package scratch

import "slices"

// Number covers the accumulator value types the kernels use.
type Number interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// SPA is a Gustavson-style sparse accumulator over the key domain [0, n):
// dense values, a generation stamp per slot, and a touched-key list.
// Insert and lookup are array indexing (no hashing); Reset is a generation
// bump that invalidates every slot in O(1). The zero value is unusable;
// create with NewSPA.
//
// Not safe for concurrent use — give each worker its own (a slice indexed
// by par.ForW's worker id, or a Pool).
type SPA[V Number] struct {
	vals    []V
	gen     []uint32
	cur     uint32
	touched []int32
}

// NewSPA returns a SPA over the key domain [0, n).
func NewSPA[V Number](n int) *SPA[V] {
	return &SPA[V]{vals: make([]V, n), gen: make([]uint32, n), cur: 1}
}

// Cap returns the key-domain size.
func (s *SPA[V]) Cap() int { return len(s.vals) }

// Grow extends the key domain to at least n, keeping current entries.
func (s *SPA[V]) Grow(n int) {
	if n <= len(s.vals) {
		return
	}
	nv := make([]V, n)
	copy(nv, s.vals)
	s.vals = nv
	ng := make([]uint32, n)
	copy(ng, s.gen)
	s.gen = ng
}

// Reset forgets every entry. O(1): bumps the generation stamp (clearing
// the stamp array only on the one-in-4-billion wraparound).
func (s *SPA[V]) Reset() {
	s.touched = s.touched[:0]
	s.cur++
	if s.cur == 0 {
		clear(s.gen)
		s.cur = 1
	}
}

// Probe returns the slot for key i and whether this is its first touch
// since Reset. A fresh slot holds the zero V. The pointer is valid until
// Grow.
func (s *SPA[V]) Probe(i int32) (*V, bool) {
	if s.gen[i] == s.cur {
		return &s.vals[i], false
	}
	s.gen[i] = s.cur
	var zero V
	s.vals[i] = zero
	s.touched = append(s.touched, i)
	return &s.vals[i], true
}

// Add accumulates delta into key i (inserting it at delta if fresh).
func (s *SPA[V]) Add(i int32, delta V) {
	p, _ := s.Probe(i)
	*p += delta
}

// Get returns the value for key i and whether it was touched since Reset.
func (s *SPA[V]) Get(i int32) (V, bool) {
	if s.gen[i] == s.cur {
		return s.vals[i], true
	}
	var zero V
	return zero, false
}

// Value returns the value for key i, or the zero V when untouched.
func (s *SPA[V]) Value(i int32) V {
	v, _ := s.Get(i)
	return v
}

// Len returns the number of touched keys.
func (s *SPA[V]) Len() int { return len(s.touched) }

// Touched returns the touched keys in first-insert order. The slice is
// owned by the SPA: valid until the next Reset, and mutating it corrupts
// the accumulator.
func (s *SPA[V]) Touched() []int32 { return s.touched }

// SortedTouched sorts the touched keys ascending in place and returns
// them — the deterministic emission order for kernels whose output order
// matters. Same ownership rules as Touched.
func (s *SPA[V]) SortedTouched() []int32 {
	slices.Sort(s.touched)
	return s.touched
}
