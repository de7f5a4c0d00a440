package streaming

import (
	"runtime"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/racebuild"
)

// TestAllocBudgetStreamingJaccard holds StreamingJaccard, fed 2,000 updates
// from an empty graph, to the bytes of the answers its queries build plus a
// stated overhead, on the update streams of the retired benchmark matrix
// (scales 10 and 12, 10 % deletes, seed 42). Only the ranking's sort scratch
// is pooled, so the bytes move little from run to run. On both streams the
// budget is at most twice the bytes the matrix recorded. Under the race
// detector the budget grows by what that build adds (see below).
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
		// The ranking's sort scratch, were it not pooled: a 48 B header and
		// 16 B a partner, twice that from 256 partners, where the ranker
		// radix-sorts through a second buffer.
		var answers, rank, arcs uint64
		for _, u := range ups {
			replay.ApplyUpdate(u)
			for _, v := range [2]int32{u.Src, u.Dst} {
				ranked := replay.Query(v, 0)
				answers += 24 * uint64(cap(ranked))
				rank += 48 + 16*uint64(len(ranked))
				if len(ranked) >= 256 {
					rank += 16 * uint64(len(ranked))
				}
			}
			if !u.Delete {
				arcs += 2
			}
		}
		// The answers and an eighth more for size-class rounding; the ranking
		// sorts in pooled scratch. The graph: 12 B a vertex (block heads and
		// degrees) and at most one 16-slot block (288 B) an inserted arc. The
		// SPA: 8 B a vertex and its touched list, whose append growth stays
		// within 8 B a vertex.
		budget := answers + answers/8 + 12*uint64(n) + 288*arcs + 16*uint64(n)
		if racebuild.Enabled {
			// A -race build adds two costs. The compiler does not fuse
			// slices.Grow's append(s, make([]T, n)...) there, so each Grow
			// also allocates a zeroed temporary the size of what it adds:
			// the answers once more, and the sort scratch twice. And
			// sync.Pool drops a quarter of what it is handed, so the sort
			// scratch counts as allocated by every query.
			budget += answers + answers/8 + 2*rank + rank/4
		}
		t.Logf("stream-s%d-u%d: %d B allocated, answers %d B, budget %d B", scale, len(ups), got, answers, budget)
		if got > budget {
			t.Errorf("stream-s%d-u%d: StreamingJaccard allocated %d B, budget %d B (answers %d B)", scale, len(ups), got, budget, answers)
		}
	}
}
