package kernels

import "repro/internal/scratch"

// Shared scratch pools for the kernel hot paths. Accumulators are borrowed
// reset and returned reset (the Pool convention), so invocations that follow
// one another within a garbage-collection cycle or two — the serving layer's
// per-request queries, a harness's back-to-back reps — reuse them and
// allocate nothing. A sync.Pool is emptied by the collector: a kernel called
// once a second finds it empty every time and pays for its accumulator again,
// so a batch kernel must be cheap with a cold pool too (O(n) per worker; see
// TestAllocBudgetBatchKernels).

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
