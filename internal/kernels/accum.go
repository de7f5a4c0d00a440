package kernels

import "repro/internal/scratch"

// Shared scratch pools for the kernel hot paths. Accumulators are borrowed
// reset and returned reset (the Pool convention), so repeated kernel
// invocations — the benchmark harness's reps, the streaming layer's
// per-update queries — run at a zero steady-state allocation rate.

// wedgePool holds the pair-keyed wedge-count accumulators for Jaccard.
var wedgePool = scratch.NewPool(func() *scratch.Map64[int32] {
	return scratch.NewMap64[int32](1 << 10)
})

// spaI32Pool holds vertex-keyed int32 counters (2-hop common-neighbor
// counts, label votes) that double as the traversals' visited set: Probe
// reports first touch and Touched is the discovery order.
var spaI32Pool = scratch.NewPool(func() *scratch.SPA[int32] {
	return scratch.NewSPA[int32](0)
})

// BorrowVertexCounts returns a reset pooled int32 SPA covering [0, n);
// exported so the cluster coordinator's khop and jaccard run on the same
// scratch as the kernels they replay.
func BorrowVertexCounts(n int32) *scratch.SPA[int32] {
	s := spaI32Pool.Get()
	s.Grow(int(n))
	s.Reset()
	return s
}

// ReturnVertexCounts hands s back; its Touched list dies with it.
func ReturnVertexCounts(s *scratch.SPA[int32]) {
	s.Reset()
	spaI32Pool.Put(s)
}

func borrowWedgeMap() *scratch.Map64[int32] {
	m := wedgePool.Get()
	m.Reset()
	return m
}

func returnWedgeMap(m *scratch.Map64[int32]) {
	m.Reset()
	wedgePool.Put(m)
}
