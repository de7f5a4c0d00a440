package matrix

import "repro/internal/scratch"

// Shared SPA pool for row accumulation. Every semiring kernel that
// scatter-accumulates into an output row borrows from here instead of
// allocating a map (or a dense accVal/accSet pair) per row; the row loops of
// SpGEMM/SpMSpV allocate nothing, and back-to-back invocations reuse the
// accumulator (the collector empties the pool between infrequent ones).
var spaF64Pool = scratch.NewPool(func() *scratch.SPA[float64] {
	return scratch.NewSPA[float64](0)
})

// borrowSPA returns a reset SPA covering the key domain [0, n).
func borrowSPA(n int32) *scratch.SPA[float64] {
	s := spaF64Pool.Get()
	s.Grow(int(n))
	s.Reset()
	return s
}

// returnSPA hands the SPA back reset, per the Pool convention.
func returnSPA(s *scratch.SPA[float64]) {
	s.Reset()
	spaF64Pool.Put(s)
}
