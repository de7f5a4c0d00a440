package streaming

import (
	"runtime"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
)

// TestAllocBudgetStreamingJaccard holds StreamingJaccard, fed 2,000 updates
// from an empty graph, to the bytes of the answers its queries build plus a
// stated overhead, on the update streams of the retired benchmark matrix
// (scales 10 and 12, 10 % deletes, seed 42). Nothing is pooled, so the bytes
// repeat from run to run. On both streams the budget is at most twice the
// bytes the matrix recorded.
func TestAllocBudgetStreamingJaccard(t *testing.T) {
	for _, scale := range []int{10, 12} {
		n := int32(1) << scale
		ups := gen.EdgeUpdateStream(scale, 2000, 0.1, 42)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sj := NewStreamingJaccard(dyngraph.New(n, false))
		for _, u := range ups {
			sj.ApplyUpdate(u)
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc

		// Replay the stream to size the answers: each update queries both
		// endpoints, and each query builds a slice of 24 B a partner.
		replay := NewStreamingJaccard(dyngraph.New(n, false))
		var answers, queries, arcs uint64
		for _, u := range ups {
			replay.ApplyUpdate(u)
			for _, v := range [2]int32{u.Src, u.Dst} {
				answers += 24 * uint64(cap(replay.Query(v, 0)))
				queries++
			}
			if !u.Delete {
				arcs += 2
			}
		}
		// The answers, an eighth more for size-class rounding, and 192 B a
		// query for the sort's reflection (swapper, boxed slice, closure).
		// The graph: 12 B a vertex (block heads and degrees) and at most one
		// 16-slot block (288 B) an inserted arc. The SPA: 8 B a vertex and
		// its touched list, whose append growth stays within 8 B a vertex.
		budget := answers + answers/8 + 192*queries + 12*uint64(n) + 288*arcs + 16*uint64(n)
		t.Logf("stream-s%d-u%d: %d B allocated, answers %d B, budget %d B", scale, len(ups), got, answers, budget)
		if got > budget {
			t.Errorf("stream-s%d-u%d: StreamingJaccard allocated %d B, budget %d B (answers %d B)", scale, len(ups), got, budget, answers)
		}
	}
}
