// Package kernels implements every batch graph kernel in the paper's Fig. 1
// taxonomy: connectedness (BFS, WCC, SCC), path analysis (SSSP, APSP),
// centrality (betweenness, PageRank, clustering coefficients), clustering
// (Jaccard), contraction/partitioning, subgraph isomorphism and triangle
// kernels, plus the auxiliary "search for largest" and k-hop neighborhood
// primitives the canonical flow needs.
//
// Kernels operate on the immutable CSR graphs from internal/graph.
// Distances and parents use int32 with -1 meaning "unreached".
//
// Parallel variants fan out through internal/par (never raw goroutine
// pools) and are deterministic: for any worker count they produce
// byte-identical results, with ties broken toward smaller vertex IDs. The
// differential suite in difftest_test.go checks each one against its
// sequential reference.
package kernels

import (
	"context"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scratch"
)

// Unreached marks vertices not touched by a traversal.
const Unreached = int32(-1)

// frontierChunkArcs is how many arcs a chunk of a pass over a frontier
// should hold: a hundred microseconds or two of work, about what it costs
// to wake a parked worker. A pass with fewer arcs than that is one chunk and
// runs on the calling goroutine — most levels of a BFS and most rounds of a
// peel on a power-law graph are that small, and starting workers for them
// costs more than the pass.
const frontierChunkArcs = 32768

// arcGrain is the par.Opt.Grain, in frontier vertices, that cuts a frontier
// of the given size and arc volume into chunks of about frontierChunkArcs
// arcs. It depends on the input alone, never on the worker count.
func arcGrain(frontier int, arcs int64) int {
	return max(1, int(int64(frontier)*frontierChunkArcs/max(arcs, 1)))
}

// BFSResult holds the output of a breadth-first search: per-vertex parent in
// the BFS tree and hop distance from the source (the paper's "compute vertex
// property" output class).
type BFSResult struct {
	Source  int32
	Parent  []int32
	Depth   []int32
	Visited int64 // number of reached vertices
}

// BFS runs a serial top-down breadth-first search from src.
func BFS(g *graph.Graph, src int32) *BFSResult {
	n := g.NumVertices()
	res := &BFSResult{Source: src, Parent: make([]int32, n), Depth: make([]int32, n)}
	for i := range res.Parent {
		res.Parent[i] = Unreached
		res.Depth[i] = Unreached
	}
	res.Parent[src] = src
	res.Depth[src] = 0
	res.Visited = 1
	frontier := []int32{src}
	next := make([]int32, 0, 64)
	depth := int32(0)
	for len(frontier) > 0 {
		depth++
		next = next[:0]
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if res.Parent[w] == Unreached {
					res.Parent[w] = v
					res.Depth[w] = depth
					res.Visited++
					next = append(next, w)
				}
			}
		}
		frontier, next = next, frontier
	}
	return res
}

// bfsScratch is what BFSParallel needs besides its result: the frontier
// queue, the workers' collection buffers and the bottom-up bitmap. It is
// pooled because traversals come in runs — one per source, back to back —
// and a run keeps the pool warm; a lone call pays 4 B a vertex plus the
// buffers.
type bfsScratch struct {
	queue      []int32
	out        par.Frontier[int32]
	inFrontier scratch.Bitset
}

var bfsPool = scratch.NewPool(func() *bfsScratch { return new(bfsScratch) })

// BFSParallel runs a level-synchronous direction-optimizing BFS through the
// internal/par scheduler. On undirected graphs it switches from top-down to
// bottom-up when the frontier grows past a fraction of the unvisited arc
// volume — the standard Beamer optimization the Graph500 reference
// implementations use. (Bottom-up scans each unvisited vertex's out-arcs
// for frontier members, which only finds the reverse of a frontier arc on
// undirected graphs, so directed graphs always run top-down.)
//
// The result is deterministic for any worker count: each discovered vertex
// records the minimum-ID frontier neighbor as its parent, so the tree is a
// pure function of the graph and source. Depths and the visited count match
// sequential BFS exactly.
func BFSParallel(g *graph.Graph, src int32) *BFSResult {
	n := g.NumVertices()
	res := &BFSResult{Source: src, Parent: make([]int32, n), Depth: make([]int32, n)}
	parent := res.Parent // read and written atomically during the top-down levels
	for i := range parent {
		parent[i] = Unreached
		res.Depth[i] = Unreached
	}
	parent[src] = src
	res.Depth[src] = 0
	res.Visited = 1

	// The frontier is GAP's sliding queue: a vertex enters it once, so every
	// level is a window of one n-sized array and the next level is collected
	// into the room behind the current one, through sc.out's per-worker
	// buffers. The order a level's vertices arrive in follows the schedule,
	// which the result cannot see — parents are minimum-ID by construction
	// in both directions.
	sc := bfsPool.Get()
	defer bfsPool.Put(sc)
	sc.queue = slices.Grow(sc.queue[:0], int(n))
	frontier, out := append(sc.queue, src), &sc.out
	depth := int32(0)
	// Bottom-up membership bitmap: a real word-packed bitset (32× smaller
	// than the former word-per-vertex array, so the scan side of the Beamer
	// switch stays cache-resident). Marking uses the atomic set — frontier
	// vertices from different chunks can share a word.
	sc.inFrontier.Grow(int(n))
	inFrontier := &sc.inFrontier
	bottomUpOK := !g.Directed()

	for len(frontier) > 0 {
		depth++
		frontierArcs := int64(0)
		for _, v := range frontier {
			frontierArcs += int64(g.Degree(v))
		}
		useBottomUp := bottomUpOK &&
			frontierArcs > g.NumEdges()/20 && int64(len(frontier)) > int64(n)/20

		next := frontier[len(frontier):]
		if useBottomUp {
			inFrontier.Clear()
			// Setting a bit is a few nanoseconds: chunks of 16k vertices are
			// about as long as a chunk of frontierChunkArcs arcs.
			par.For(len(frontier), par.Opt{Name: "bfs.mark", Grain: 16384}, func(lo, hi int) {
				for _, v := range frontier[lo:hi] {
					inFrontier.SetAtomic(v)
				}
			})
			// Each unvisited vertex scans its (sorted) neighbors for the
			// first — i.e. minimum-ID — frontier member. Each vertex is
			// owned by exactly one chunk, so parent/depth writes don't race.
			next = out.Collect(next, int(n), par.Opt{Name: "bfs.bottomup", Grain: arcGrain(int(n), g.NumEdges())},
				func(local []int32, lo, hi int) []int32 {
					for v := int32(lo); v < int32(hi); v++ {
						if parent[v] != Unreached {
							continue
						}
						for _, u := range g.Neighbors(v) {
							if inFrontier.Test(u) {
								parent[v] = u
								res.Depth[v] = depth
								local = append(local, v)
								break
							}
						}
					}
					return local
				})
		} else {
			// Top-down: frontier vertices claim unvisited neighbors with a
			// CAS, then refine the parent down to the minimum-ID frontier
			// discoverer with a CAS-min loop. A vertex was claimed in THIS
			// level iff its current parent sits at depth-1; that depth was
			// written before the level barrier, so the read is stable.
			next = out.Collect(next, len(frontier), par.Opt{Name: "bfs.topdown", Grain: arcGrain(len(frontier), frontierArcs)},
				func(local []int32, lo, hi int) []int32 {
					for _, v := range frontier[lo:hi] {
						for _, u := range g.Neighbors(v) {
							for {
								p := atomic.LoadInt32(&parent[u])
								if p == Unreached {
									if atomic.CompareAndSwapInt32(&parent[u], Unreached, v) {
										res.Depth[u] = depth
										local = append(local, u)
										break
									}
									continue // lost the claim; re-read
								}
								if p <= v || res.Depth[p] != depth-1 {
									break // already minimal, or claimed in an earlier level
								}
								if atomic.CompareAndSwapInt32(&parent[u], p, v) {
									break
								}
							}
						}
					}
					return local
				})
		}
		res.Visited += int64(len(next))
		frontier = next
	}
	return res
}

// ValidateBFSTree checks the Graph500-style invariants of a BFS result:
// the tree edges exist in the graph, depths differ by exactly 1 along tree
// edges, and every edge of the graph spans at most one level. Returns true
// when all hold.
//
// On an undirected graph it reads each reached vertex's row once, checking
// the neighbours' levels and looking for the parent as it goes; only a
// parent missing from the row costs a binary search. On a directed graph a
// reached vertex's arcs constrain nothing, and the tree edge p→v is found by
// binary search in p's row.
func ValidateBFSTree(g *graph.Graph, res *BFSResult) bool {
	n := g.NumVertices()
	if res.Source < 0 || res.Source >= n {
		return false
	}
	if res.Parent[res.Source] != res.Source || res.Depth[res.Source] != 0 {
		return false
	}
	directed := g.Directed()
	for v := int32(0); v < n; v++ {
		p, d := res.Parent[v], res.Depth[v]
		if p == Unreached {
			if d != Unreached {
				return false
			}
			continue
		}
		if p < 0 || p >= n || (v != res.Source && d != res.Depth[p]+1) {
			return false
		}
		adjacent := v == res.Source
		if !directed {
			for _, w := range g.Neighbors(v) {
				dw := res.Depth[w]
				if dw == Unreached || dw < d-1 || dw > d+1 {
					return false
				}
				adjacent = adjacent || w == p
			}
		}
		if !adjacent && !g.HasEdge(p, v) && !g.HasEdge(v, p) {
			return false
		}
	}
	return true
}

// KHopNeighborhood returns all vertices within k hops of the seeds
// (inclusive), in BFS discovery order. This is the paper's subgraph
// extraction primitive ("a breadth-first search from individual seed
// vertices out to some depth").
func KHopNeighborhood(g *graph.Graph, seeds []int32, k int32) []int32 {
	order, _ := AppendKHopNeighborhoodCtx(context.Background(), nil, g, seeds, k)
	return order
}
