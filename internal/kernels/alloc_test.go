package kernels

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/racebuild"
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
	return allocBytes(f)
}

// warmCalls is how many calls warmAllocBytes takes the minimum over. One
// warm call is not a stable measure: the schedule decides how the work
// falls to the workers, and with it how far their buffers grow.
const warmCalls = 8

// warmAllocBytes is the fewest bytes f allocates over warmCalls calls, each
// after one collection, so that what the previous call returned to a
// sync.Pool sits in the pool's victim cache: the condition of a kernel
// called again and again with a collection between calls. One call first
// primes the pools. It runs at GOMAXPROCS 1. With more processors a borrow
// cannot see what another processor holds privately, and a goroutine that
// changed processors across the collection misses the pool on every call.
func warmAllocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	best := uint64(math.MaxUint64)
	for range warmCalls {
		runtime.GC()
		best = min(best, allocBytes(f))
	}
	return best
}

func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// batchInput is one graph TestAllocBudgetBatchKernels runs the kernels on,
// with the arguments it runs them with.
type batchInput struct {
	name     string
	g, gw    *graph.Graph // gw is the graph DeltaSteppingParallel runs on
	src      int32        // the BFS and SSSP source
	delta    float64      // the SSSP bucket width
	minScore float64      // the Jaccard threshold
	n, m     uint64       // g's vertices and arcs
	pairs    int          // the pairs sharing two neighbours that score minScore or more
}

func newBatchInput(name string, g, gw *graph.Graph, src int32, delta, minScore float64) *batchInput {
	return &batchInput{
		name: name, g: g, gw: gw, src: src, delta: delta, minScore: minScore,
		n: uint64(g.NumVertices()), m: uint64(g.NumEdges()),
		pairs: len(JaccardAll(g, 2, minScore, 0)),
	}
}

// batchInputs are R-MAT scale 12 at edge factor 16, run from its
// highest-degree vertex with SSSP on a weighted copy, then the four graphs
// of the retired benchmark matrix, run with its arguments: R-MAT and
// Erdős–Rényi at scales 10 and 12, edge factor 8, seed 42, source 0, SSSP
// on the graph itself at delta 1 and Jaccard at threshold 0.2. -short drops
// the matrix's scale-12 graphs.
func batchInputs() []*batchInput {
	g := gen.RMAT(12, 16, gen.Graph500RMAT, 42, false)
	src, _ := graph.MaxDegreeVertex(g)
	ins := []*batchInput{newBatchInput("rmat-s12-ef16", g, gen.RMATWeighted(12, 16, gen.Graph500RMAT, 42, false), src, 0.05, 0.1)}
	for _, scale := range []int{10, 12} {
		if scale > 10 && testing.Short() {
			break
		}
		rmat := gen.RMAT(scale, 8, gen.Graph500RMAT, 42, false)
		er := gen.ErdosRenyi(1<<scale, (1<<scale)*8/2, 42, false)
		ins = append(ins,
			newBatchInput(fmt.Sprintf("rmat-s%d-ef8", scale), rmat, rmat, 0, 1, 0.2),
			newBatchInput(fmt.Sprintf("er-s%d-ef8", scale), er, er, 0, 1, 0.2))
	}
	return ins
}

// TestAllocBudgetBatchKernels holds each parallel batch kernel to the bytes
// of its result plus a stated scratch, on every batchInputs graph at two
// workers, in two passes. Bytes, not malloc counts: what the rewrite
// removed was mostly few-but-large (append-grown per-chunk slices, hash
// tables regrown from 1,024 slots, stitched copies).
//
//   - Cold, every pool empty (coldAllocBytes): the budget is the result
//     plus all the scratch, in n-sized arrays per worker.
//   - Warm, each pool holding what the previous call returned
//     (warmAllocBytes): the budget is the result plus the scratch no pool
//     holds, and a small slack. A pooled buffer that stops going back to
//     its pool fails this pass, however cheap the kernel is cold. It is
//     the bound the retired benchmark matrix held at twice its recorded
//     bytes; on each matrix graph the warm budget is at most that.
//
// Under the race detector sync.Pool drops a quarter of what it is handed,
// by design, so the warm pass is skipped there (racebuild.Enabled is set by a
// build tag).
func TestAllocBudgetBatchKernels(t *testing.T) {
	const workers = 2
	const slack = 32 << 10 // scheduler bookkeeping, closures, slice headers
	cases := []struct {
		name       string
		run        func(in *batchInput)
		cold, warm func(in *batchInput) uint64
	}{
		// Result: Parent and Depth. Scratch, all pooled: the n-sized sliding
		// queue (4 B a vertex), the workers' buffers (together at most a
		// level, 4 B a vertex, whose append growth may leave four times that
		// behind), and the n-bit frontier bitmap.
		{"BFSParallel", func(in *batchInput) { BFSParallel(in.g, in.src) },
			func(in *batchInput) uint64 { return 8*in.n + 4*in.n + 20*in.n + in.n/8 + slack },
			func(in *batchInput) uint64 { return 8*in.n + 4<<10 }},
		// Result: Core, which holds the residual degrees while it peels.
		// Scratch: the live list (4 B a vertex) and the round's frontier,
		// next and one-chunk worker buffers (a round is a small part of the
		// graph: 8 B a vertex covers them and their append growth).
		{"KCoreParallel", func(in *batchInput) { KCoreParallel(in.g) },
			func(in *batchInput) uint64 { return 4*in.n + 4*in.n + 8*in.n + slack },
			func(in *batchInput) uint64 { return 4*in.n + 4*in.n + 8*in.n + 4<<10 }},
		// Result: Dist and Parent. Scratch: atomic distance bits (8 B) and
		// settle stamps (4 B), the bucket store (a slab of n entries, 4 B),
		// cur and improved (n/2 entries each, 4 B together) and the workers'
		// one-chunk buffers.
		{"DeltaSteppingParallel", func(in *batchInput) { DeltaSteppingParallel(in.gw, in.src, in.delta) },
			func(in *batchInput) uint64 { return 12*in.n + 12*in.n + 4*in.n + 4*in.n + 8*in.n + slack },
			func(in *batchInput) uint64 { return 12*in.n + 12*in.n + 4*in.n + 4*in.n + 8*in.n + 8<<10 }},
		// Result: the labels, which are the parent array. Scratch: none.
		{"WCCParallel", func(in *batchInput) { WCCParallel(in.g) },
			func(in *batchInput) uint64 { return 4*in.n + slack },
			func(in *batchInput) uint64 { return 4*in.n + 4<<10 }},
		// Result: the rank vector. Scratch: this and the next iteration's
		// contributions (8 B a vertex each) and the per-chunk partials.
		{"PageRank", func(in *batchInput) { PageRank(in.g, DefaultPageRankOptions()) },
			func(in *batchInput) uint64 { return 8*in.n + 16*in.n + slack },
			func(in *batchInput) uint64 { return 8*in.n + 16*in.n + 16<<10 }},
		// Result: the pairs kept, in the first worker's candidate list.
		// Scratch per worker: one dense counter over the vertices (4 B value,
		// 4 B stamp, and a 4 B touched entry whose append growth may leave
		// four times that behind) and 2*maxPairs+jaccardTrimSlack candidates.
		// Warm, the counters come back from the pool and the candidate lists
		// are left. While the graph has no more qualifying pairs than one list
		// holds, no list outgrows its capacity and the result is the first
		// worker's list. Past that, a hub row may double a worker's list
		// before its cut, and the result is the lists' merge, at most twice a
		// doubled list.
		{"JaccardAllParallel", func(in *batchInput) { JaccardAllParallel(in.g, 2, in.minScore, 100) },
			func(in *batchInput) uint64 {
				return workers*(8*in.n+20*in.n+24*(2*100+jaccardTrimSlack)) + 24*100 + slack
			},
			func(in *batchInput) uint64 {
				list := uint64(24 * (2*100 + jaccardTrimSlack))
				if in.pairs <= 2*100+jaccardTrimSlack {
					return workers*list + 4<<10
				}
				return workers*3*list + 4*list + 4<<10
			}},
		// Result: a count. Scratch: rank (4 B), the degree histogram (at most
		// 4 B a vertex), forward offsets (8 B) and one forward target per
		// undirected edge (4 B).
		{"GlobalTriangleCount", func(in *batchInput) { GlobalTriangleCount(in.g) },
			func(in *batchInput) uint64 { return 16*in.n + 2*in.m + slack },
			func(in *batchInput) uint64 { return 16*in.n + 2*in.m + 16<<10 }},
	}
	ins := batchInputs()
	withWorkers(t, workers, func() {
		for _, in := range ins {
			for _, c := range cases {
				run := func() { c.run(in) }
				got, budget := coldAllocBytes(run), c.cold(in)
				t.Logf("%-22s %-14s cold %8d B, budget %8d B", c.name, in.name, got, budget)
				if got > budget {
					t.Errorf("%s on %s allocated %d B with cold pools, budget %d B", c.name, in.name, got, budget)
				}
				if racebuild.Enabled {
					continue
				}
				got, budget = warmAllocBytes(run), c.warm(in)
				t.Logf("%-22s %-14s warm %8d B, budget %8d B", c.name, in.name, got, budget)
				if got > budget {
					t.Errorf("%s on %s allocated %d B with warm pools, budget %d B", c.name, in.name, got, budget)
				}
			}
		}
	})
}
