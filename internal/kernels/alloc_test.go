package kernels

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// allocGraph returns the small fixed graph the allocation budgets are pinned
// on. Budgets are intentionally generous (roughly 2× the measured value) so
// they survive GC timing and sync.Pool eviction, while still catching a
// reintroduced per-vertex or per-edge map accumulator, which costs thousands
// of allocations on this graph.
const allocScale = 8 // 256 vertices, ~2k edges

func allocGraph() *graph.Graph {
	return gen.RMAT(allocScale, 8, gen.Graph500RMAT, 42, false)
}

func TestAllocBudgetBFS(t *testing.T) {
	g := allocGraph()
	avg := testing.AllocsPerRun(10, func() { BFS(g, 0) })
	t.Logf("BFS allocs/run = %.1f", avg)
	if avg > 40 {
		t.Errorf("BFS allocated %.1f times per run, budget 40", avg)
	}
}

func TestAllocBudgetWCC(t *testing.T) {
	g := allocGraph()
	avg := testing.AllocsPerRun(10, func() { WCC(g) })
	t.Logf("WCC allocs/run = %.1f", avg)
	if avg > 40 {
		t.Errorf("WCC allocated %.1f times per run, budget 40", avg)
	}
}

func TestAllocBudgetJaccardWedges(t *testing.T) {
	g := allocGraph()
	avg := testing.AllocsPerRun(10, func() { JaccardAll(g, 1, 0, 64) })
	t.Logf("JaccardAll allocs/run = %.1f", avg)
	if avg > 100 {
		t.Errorf("JaccardAll allocated %.1f times per run, budget 100", avg)
	}
}

// coldAllocBytes is the number of bytes f allocates when every sync.Pool is
// empty: two collections first, because a pool's contents survive one. That
// is the condition the repo benchmark's batch-kernels workload runs under —
// about one call per class between collections.
func coldAllocBytes(f func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudgetBatchKernels holds each parallel batch kernel to the bytes
// of its result plus a stated number of n-sized arrays per worker, on R-MAT
// scale 12 at two workers with cold pools. Bytes, not malloc counts: what
// the rewrite removed was mostly few-but-large (append-grown per-chunk
// slices, hash tables regrown from 1,024 slots, stitched copies).
func TestAllocBudgetBatchKernels(t *testing.T) {
	const workers = 2
	g := gen.RMAT(12, 16, gen.Graph500RMAT, 42, false)
	gw := gen.RMATWeighted(12, 16, gen.Graph500RMAT, 42, false)
	n := uint64(g.NumVertices())
	src, _ := graph.MaxDegreeVertex(g)
	const slack = 32 << 10 // scheduler bookkeeping, closures, slice headers
	cases := []struct {
		name   string
		run    func()
		budget func() uint64
	}{
		// Result: Parent and Depth. Scratch: the n-sized sliding queue (4 B a
		// vertex), the workers' buffers (together at most a level, 4 B a
		// vertex, whose append growth may leave four times that behind), and
		// the n-bit frontier bitmap.
		{"BFSParallel", func() { BFSParallel(g, src) },
			func() uint64 { return 8*n + 4*n + 20*n + n/8 + slack }},
		// Result: Core, which holds the residual degrees while it peels.
		// Scratch: the live list (4 B a vertex) and the round's frontier,
		// next and one-chunk worker buffers (a round is a small part of the
		// graph: 8 B a vertex covers them and their append growth).
		{"KCoreParallel", func() { KCoreParallel(g) },
			func() uint64 { return 4*n + 4*n + 8*n + slack }},
		// Result: Dist and Parent. Scratch: atomic distance bits (8 B) and
		// settle stamps (4 B), the bucket store (a slab of n entries, 4 B),
		// cur and improved (n/2 entries each, 4 B together) and the workers'
		// one-chunk buffers.
		{"DeltaSteppingParallel", func() { DeltaSteppingParallel(gw, src, 0.05) },
			func() uint64 { return 12*n + 12*n + 4*n + 4*n + 8*n + slack }},
		// Result: the labels, which are the parent array. Scratch: none.
		{"WCCParallel", func() { WCCParallel(g) },
			func() uint64 { return 4*n + slack }},
		// Result: the rank vector. Scratch: this and the next iteration's
		// contributions (8 B a vertex each) and the per-chunk partials.
		{"PageRank", func() { PageRank(g, DefaultPageRankOptions()) },
			func() uint64 { return 8*n + 16*n + slack }},
		// Result: the pairs kept, in the first worker's candidate list.
		// Scratch per worker: one dense counter over the vertices (4 B value,
		// 4 B stamp, and a 4 B touched entry whose append growth may leave
		// four times that behind) and 2*maxPairs+jaccardTrimSlack candidates.
		{"JaccardAllParallel", func() { JaccardAllParallel(g, 2, 0.1, 100) },
			func() uint64 { return workers*(8*n+20*n+24*(2*100+jaccardTrimSlack)) + 24*100 + slack }},
		// Result: a count. Scratch: rank (4 B), the degree histogram (at most
		// 4 B a vertex), forward offsets (8 B) and one forward target per
		// undirected edge (4 B).
		{"GlobalTriangleCount", func() { GlobalTriangleCount(g) },
			func() uint64 { return 16*n + 2*uint64(g.NumEdges()) + slack }},
	}
	withWorkers(t, workers, func() {
		for _, c := range cases {
			got, budget := coldAllocBytes(c.run), c.budget()
			t.Logf("%-22s %8d B allocated, budget %8d B", c.name, got, budget)
			if got > budget {
				t.Errorf("%s allocated %d B, budget %d B", c.name, got, budget)
			}
		}
	})
}
