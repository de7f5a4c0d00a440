// Package graph provides the static in-memory graph substrate used by every
// batch kernel in this repository: a compressed-sparse-row (CSR) adjacency
// structure with optional edge weights and timestamps, plus a columnar
// property table for vertices.
//
// The representation mirrors what the paper calls the "large persistent
// graph": vertices are dense integer IDs in [0, NumVertices), edges are
// stored once per direction for directed graphs and twice (both directions)
// for undirected graphs, and neighbor lists are sorted by target so that
// intersection-style kernels (triangles, Jaccard) run in linear merge time.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a single directed edge used when constructing a Graph.
type Edge struct {
	Src, Dst int32
	Weight   float32
	Time     int64
}

// Graph is an immutable adjacency-row graph. Vertex IDs are dense int32
// values. The zero value is an empty graph with no vertices.
//
// Row v is targets[lo[v]:hi[v]] (weights and times parallel). A graph comes
// in one of two layouts, and no accessor tells them apart:
//
//   - contiguous CSR (Builder, FromCSRArrays): rows sit back to back in
//     vertex order, lo and hi are the two views offsets[:n] and offsets[1:]
//     of one n+1 array, and the arc arrays hold exactly NumEdges arcs;
//   - arena-backed (Emitter, i.e. dyngraph snapshots): the arc arrays are a
//     prefix of an append-only arena that successive snapshot versions
//     share. A version owns its lo/hi and the rows it wrote at the arena's
//     tail; every other row still points at storage an earlier version
//     wrote, so rows are in no particular order and the arrays also hold
//     rows only older versions reference.
type Graph struct {
	n        int32
	m        int64   // stored arcs: the sum of row lengths
	lo, hi   []int64 // len n each; neighbor list of v is targets[lo[v]:hi[v]]
	targets  []int32
	weights  []float32 // nil when unweighted
	times    []int64   // nil when untimestamped
	directed bool

	offsets []int64 // contiguous layout only: len n+1, what lo and hi alias
	arena   *arena  // arena-backed layout only: the arc arrays are its first len(targets) arcs
	index   []int64 // arena-backed layout only: len 2n, what lo and hi alias (a Recycler takes it back)
}

// newCSR wraps validated contiguous CSR arrays; offsets has length n+1.
func newCSR(n int32, directed bool, offsets []int64, targets []int32, weights []float32, times []int64) *Graph {
	return &Graph{n: n, m: offsets[n], lo: offsets[:n], hi: offsets[1:], offsets: offsets,
		targets: targets, weights: weights, times: times, directed: directed}
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int32 { return g.n }

// NumEdges returns the number of stored directed arcs. For an undirected
// graph each logical edge contributes two arcs.
func (g *Graph) NumEdges() int64 { return g.m }

// NumUndirectedEdges returns the number of logical edges for an undirected
// graph (arcs/2), or the arc count for a directed graph.
func (g *Graph) NumUndirectedEdges() int64 {
	if g.directed {
		return g.NumEdges()
	}
	return g.NumEdges() / 2
}

// Directed reports whether the graph stores directed arcs only.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Timestamped reports whether edges carry timestamps.
func (g *Graph) Timestamped() bool { return g.times != nil }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int32) int32 {
	return int32(g.hi[v] - g.lo[v])
}

// Neighbors returns the sorted slice of out-neighbors of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.targets[g.lo[v]:g.hi[v]]
}

// NeighborWeights returns the weights parallel to Neighbors(v). It returns
// nil for unweighted graphs.
func (g *Graph) NeighborWeights(v int32) []float32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.lo[v]:g.hi[v]]
}

// NeighborTimes returns the timestamps parallel to Neighbors(v). It returns
// nil for untimestamped graphs.
func (g *Graph) NeighborTimes(v int32) []int64 {
	if g.times == nil {
		return nil
	}
	return g.times[g.lo[v]:g.hi[v]]
}

// HasEdge reports whether an arc v->w exists, using binary search over the
// sorted neighbor list.
func (g *Graph) HasEdge(v, w int32) bool {
	ns := g.Neighbors(v)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= w })
	return i < len(ns) && ns[i] == w
}

// Weight returns the weight of arc v->w and whether it exists. Unweighted
// graphs report weight 1 for existing arcs.
func (g *Graph) Weight(v, w int32) (float32, bool) {
	ns := g.Neighbors(v)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= w })
	if i >= len(ns) || ns[i] != w {
		return 0, false
	}
	if g.weights == nil {
		return 1, true
	}
	return g.NeighborWeights(v)[i], true
}

// Transpose returns the reverse graph (CSC view materialized as CSR over
// reversed arcs). For undirected graphs the transpose equals the original
// arc structure, and a shallow copy sharing storage is returned.
func (g *Graph) Transpose() *Graph {
	if !g.directed {
		cp := *g
		return &cp
	}
	n := g.n
	counts := make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		for _, t := range g.Neighbors(v) {
			counts[t+1]++
		}
	}
	for i := int32(0); i < n; i++ {
		counts[i+1] += counts[i]
	}
	targets := make([]int32, g.m)
	var weights []float32
	if g.weights != nil {
		weights = make([]float32, g.m)
	}
	var times []int64
	if g.times != nil {
		times = make([]int64, g.m)
	}
	cursor := make([]int64, n)
	copy(cursor, counts[:n])
	for v := int32(0); v < n; v++ {
		ws, ts := g.NeighborWeights(v), g.NeighborTimes(v)
		for i, w := range g.Neighbors(v) {
			p := cursor[w]
			cursor[w]++
			targets[p] = v
			if weights != nil {
				weights[p] = ws[i]
			}
			if times != nil {
				times[p] = ts[i]
			}
		}
	}
	// Neighbor lists of the transpose are automatically sorted because we
	// scanned source vertices in increasing order.
	return newCSR(n, true, counts, targets, weights, times)
}

// Undirected returns an undirected view of g: for directed graphs it adds the
// reverse of every arc and rebuilds; undirected graphs are returned as-is.
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g
	}
	b := NewBuilder(g.n)
	b.directed = false
	if g.weights != nil {
		b.weighted = true
	}
	if g.times != nil {
		b.timestamped = true
	}
	for v := int32(0); v < g.n; v++ {
		ws, ts := g.NeighborWeights(v), g.NeighborTimes(v)
		for i, w := range g.Neighbors(v) {
			e := Edge{Src: v, Dst: w, Weight: 1}
			if ws != nil {
				e.Weight = ws[i]
			}
			if ts != nil {
				e.Time = ts[i]
			}
			b.AddEdge(e)
		}
	}
	return b.Build()
}

// Validate checks structural invariants (one lo/hi pair per vertex, every
// row inside the arc arrays, row lengths summing to NumEdges, back-to-back
// rows in a contiguous graph, in-range targets, sorted neighbor lists) and
// returns a descriptive error on violation. It is used by tests and by
// property-based checks.
func (g *Graph) Validate() error {
	if int32(len(g.lo)) != g.n || int32(len(g.hi)) != g.n {
		return fmt.Errorf("graph: row index lengths %d/%d for %d vertices", len(g.lo), len(g.hi), g.n)
	}
	if g.arena == nil && g.m != int64(len(g.targets)) {
		return fmt.Errorf("graph: %d arcs != targets length %d", g.m, len(g.targets))
	}
	var sum, next int64
	for v := int32(0); v < g.n; v++ {
		lo, hi := g.lo[v], g.hi[v]
		if lo < 0 || lo > hi || hi > int64(len(g.targets)) {
			return fmt.Errorf("graph: row %d is [%d,%d) of %d arcs", v, lo, hi, len(g.targets))
		}
		if g.arena == nil && lo != next {
			return fmt.Errorf("graph: row %d starts at %d, previous row ended at %d", v, lo, next)
		}
		next = hi
		sum += hi - lo
		ns := g.Neighbors(v)
		for i, w := range ns {
			if w < 0 || w >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if i > 0 && ns[i-1] > w {
				return fmt.Errorf("graph: vertex %d neighbor list not sorted", v)
			}
		}
	}
	if sum != g.m {
		return fmt.Errorf("graph: rows hold %d arcs, NumEdges is %d", sum, g.m)
	}
	if g.weights != nil && len(g.weights) != len(g.targets) {
		return fmt.Errorf("graph: weights length mismatch")
	}
	if g.times != nil && len(g.times) != len(g.targets) {
		return fmt.Errorf("graph: times length mismatch")
	}
	return nil
}

// Builder accumulates edges and produces an immutable CSR Graph.
type Builder struct {
	n           int32
	edges       []Edge
	directed    bool
	weighted    bool
	timestamped bool
	dedup       bool
	selfLoops   bool
}

// NewBuilder returns a builder for a directed graph with n vertices.
// Configure with the With* methods before adding edges.
func NewBuilder(n int32) *Builder {
	return &Builder{n: n, directed: true}
}

// Undirected marks the graph undirected: every added edge is stored in both
// directions.
func (b *Builder) Undirected() *Builder { b.directed = false; return b }

// Weighted enables per-edge weights.
func (b *Builder) Weighted() *Builder { b.weighted = true; return b }

// Timestamped enables per-edge timestamps.
func (b *Builder) Timestamped() *Builder { b.timestamped = true; return b }

// DedupEdges removes parallel edges at Build time (keeping the minimum
// weight and the earliest timestamp among duplicates).
func (b *Builder) DedupEdges() *Builder { b.dedup = true; return b }

// AllowSelfLoops retains self loops; by default they are dropped at Build.
func (b *Builder) AllowSelfLoops() *Builder { b.selfLoops = true; return b }

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int32 { return b.n }

// AddEdge appends one edge. Endpoints must be in range; out-of-range edges
// panic since they indicate a generator bug, not a runtime condition.
func (b *Builder) AddEdge(e Edge) {
	if e.Src < 0 || e.Src >= b.n || e.Dst < 0 || e.Dst >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", e.Src, e.Dst, b.n))
	}
	b.edges = append(b.edges, e)
}

// Add is shorthand for AddEdge with weight 1 and time 0.
func (b *Builder) Add(src, dst int32) { b.AddEdge(Edge{Src: src, Dst: dst, Weight: 1}) }

// AddWeighted is shorthand for AddEdge with a weight.
func (b *Builder) AddWeighted(src, dst int32, w float32) {
	b.AddEdge(Edge{Src: src, Dst: dst, Weight: w})
}

// NumPendingEdges returns how many edges have been added so far (before
// direction doubling or dedup).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// arc is Build's sort record: the endpoint the remaining pass keys on (the
// other is implied by the bucket) and the index of the edge with the payload.
type arc struct{ key, idx int32 }

// Build sorts, optionally dedups, and freezes the graph. The builder can be
// reused afterwards; its edge buffer is consumed.
//
// The sort is a two-pass LSD counting sort (scatter by Dst, then by Src)
// over the arc sequence "added edges in insertion order, then, when
// undirected, their reverses in the same order". Both passes are stable, so
// parallel arcs stay in that order and dedup folds the same sequence for
// BOTH stored directions of an undirected edge.
func (b *Builder) Build() *Graph {
	edges := b.edges
	b.edges = nil
	if !b.selfLoops {
		kept := edges[:0]
		for _, e := range edges {
			if e.Src != e.Dst {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	if len(edges) > 1<<31-1 {
		panic(fmt.Sprintf("graph: %d edges overflow the builder's int32 edge index", len(edges)))
	}
	// byDst[v] and bySrc[v] count bucket v, then hold its write cursor, which
	// a scatter pass leaves at the bucket's end.
	byDst, bySrc := make([]int64, b.n), make([]int64, b.n)
	for _, e := range edges {
		bySrc[e.Src]++
		byDst[e.Dst]++
		if !b.directed {
			bySrc[e.Dst]++
			byDst[e.Src]++
		}
	}
	var m, md int64
	for v := range bySrc {
		bySrc[v], m = m, m+bySrc[v]
		byDst[v], md = md, md+byDst[v]
	}
	cols := make([]arc, m) // sorted by Dst, key = Src
	for i, e := range edges {
		cols[byDst[e.Dst]] = arc{e.Src, int32(i)}
		byDst[e.Dst]++
	}
	if !b.directed {
		for i, e := range edges {
			cols[byDst[e.Src]] = arc{e.Dst, int32(i)}
			byDst[e.Src]++
		}
	}
	rows := make([]arc, m) // sorted by (Src, Dst), key = Dst
	lo := int64(0)
	for d, hi := range byDst {
		for _, a := range cols[lo:hi] {
			rows[bySrc[a.key]] = arc{int32(d), a.idx}
			bySrc[a.key]++
		}
		lo = hi
	}

	offsets := make([]int64, b.n+1)
	lo = 0
	for v, hi := range bySrc {
		kept := hi - lo
		for i := lo + 1; b.dedup && i < hi; i++ {
			if rows[i].key == rows[i-1].key {
				kept--
			}
		}
		offsets[v+1] = offsets[v] + kept
		lo = hi
	}
	g := newCSR(b.n, b.directed, offsets, make([]int32, offsets[b.n]), nil, nil)
	if b.weighted {
		g.weights = make([]float32, len(g.targets))
	}
	if b.timestamped {
		g.times = make([]int64, len(g.targets))
	}
	out := -1 // last arc written
	lo = 0
	for _, hi := range bySrc {
		for i := lo; i < hi; i++ {
			a := rows[i]
			if b.dedup && i > lo && a.key == rows[i-1].key {
				// Parallel edges collapse to the minimum weight and earliest
				// timestamp, folded in arc-sequence order.
				if g.weights != nil && edges[a.idx].Weight < g.weights[out] {
					g.weights[out] = edges[a.idx].Weight
				}
				if g.times != nil && edges[a.idx].Time < g.times[out] {
					g.times[out] = edges[a.idx].Time
				}
				continue
			}
			out++
			g.targets[out] = a.key
			if g.weights != nil {
				g.weights[out] = edges[a.idx].Weight
			}
			if g.times != nil {
				g.times[out] = edges[a.idx].Time
			}
		}
		lo = hi
	}
	return g
}

// FromEdges builds an unweighted graph from an edge list in one call.
func FromEdges(n int32, directed bool, edges [][2]int32) *Graph {
	b := NewBuilder(n)
	if !directed {
		b.Undirected()
	}
	b.DedupEdges()
	b.edges = make([]Edge, 0, len(edges))
	for _, e := range edges {
		b.Add(e[0], e[1])
	}
	return b.Build()
}
