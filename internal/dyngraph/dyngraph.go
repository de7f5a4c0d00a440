package dyngraph

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// DefaultBlockSize is the edges-per-block default, matching STINGER's
// cache-line-sized blocks in spirit.
const DefaultBlockSize = 16

type edgeSlot struct {
	dst    int32
	weight float32
	time   int64
}

// block is a fixed-capacity chunk of a vertex's adjacency list. Blocks form
// a singly linked list per vertex. Deleted slots are compacted immediately
// within their block (swap-with-last), so iteration never sees tombstones.
type block struct {
	slots []edgeSlot
	next  *block
}

// DynGraph is a mutable directed or undirected multigraph-free graph.
// Undirected graphs store each edge in both endpoints' lists. Not safe for
// concurrent mutation; the streaming engine serializes updates, matching the
// single-writer model of STINGER's update batches.
type DynGraph struct {
	adj       []*block
	degree    []int32
	directed  bool
	blockSize int
	numArcs   int64

	rowBuf []edgeSlot // SnapshotDeltaRecycled's row gather buffer, kept between calls
}

// New creates an empty dynamic graph with n vertices.
func New(n int32, directed bool) *DynGraph {
	return NewWithBlockSize(n, directed, DefaultBlockSize)
}

// NewWithBlockSize creates a dynamic graph with an explicit block size
// (exposed for the block-size ablation benchmark).
func NewWithBlockSize(n int32, directed bool, blockSize int) *DynGraph {
	if blockSize < 1 {
		blockSize = DefaultBlockSize
	}
	return &DynGraph{
		adj:       make([]*block, n),
		degree:    make([]int32, n),
		directed:  directed,
		blockSize: blockSize,
	}
}

// NumVertices returns the vertex count.
func (g *DynGraph) NumVertices() int32 { return int32(len(g.adj)) }

// NumArcs returns stored directed arcs (undirected edges count twice).
func (g *DynGraph) NumArcs() int64 { return g.numArcs }

// NumEdges returns logical edges.
func (g *DynGraph) NumEdges() int64 {
	if g.directed {
		return g.numArcs
	}
	return g.numArcs / 2
}

// Directed reports the directedness.
func (g *DynGraph) Directed() bool { return g.directed }

// Degree returns the current out-degree of v.
func (g *DynGraph) Degree(v int32) int32 { return g.degree[v] }

// HasEdge reports whether arc v->w currently exists.
func (g *DynGraph) HasEdge(v, w int32) bool {
	for b := g.adj[v]; b != nil; b = b.next {
		for _, s := range b.slots {
			if s.dst == w {
				return true
			}
		}
	}
	return false
}

// InsertEdge adds edge (v,w) with the given weight and timestamp. If the
// edge already exists its weight and timestamp are updated instead (the
// paper's "checking if it is already in the graph and then either adding the
// edge or updating some properties"). Returns true when a new edge was
// created.
func (g *DynGraph) InsertEdge(v, w int32, weight float32, time int64) bool {
	created := g.insertArc(v, w, weight, time)
	if !g.directed && v != w {
		g.insertArc(w, v, weight, time)
	}
	return created
}

func (g *DynGraph) insertArc(v, w int32, weight float32, time int64) bool {
	var last *block
	for b := g.adj[v]; b != nil; b = b.next {
		for i := range b.slots {
			if b.slots[i].dst == w {
				b.slots[i].weight = weight
				b.slots[i].time = time
				return false
			}
		}
		last = b
	}
	slot := edgeSlot{dst: w, weight: weight, time: time}
	if last != nil && len(last.slots) < g.blockSize {
		last.slots = append(last.slots, slot)
	} else {
		nb := &block{slots: make([]edgeSlot, 1, g.blockSize)}
		nb.slots[0] = slot
		if last == nil {
			g.adj[v] = nb
		} else {
			last.next = nb
		}
	}
	g.degree[v]++
	g.numArcs++
	return true
}

// DeleteEdge removes edge (v,w); returns true if it existed.
func (g *DynGraph) DeleteEdge(v, w int32) bool {
	ok := g.deleteArc(v, w)
	if !g.directed && v != w {
		g.deleteArc(w, v)
	}
	return ok
}

func (g *DynGraph) deleteArc(v, w int32) bool {
	for b := g.adj[v]; b != nil; b = b.next {
		for i := range b.slots {
			if b.slots[i].dst == w {
				b.slots[i] = b.slots[len(b.slots)-1]
				b.slots = b.slots[:len(b.slots)-1]
				g.degree[v]--
				g.numArcs--
				return true
			}
		}
	}
	return false
}

// ForEachNeighbor calls fn for every out-neighbor of v with its weight and
// timestamp. Iteration order is storage order, not sorted.
func (g *DynGraph) ForEachNeighbor(v int32, fn func(w int32, weight float32, time int64)) {
	for b := g.adj[v]; b != nil; b = b.next {
		for _, s := range b.slots {
			fn(s.dst, s.weight, s.time)
		}
	}
}

// Neighbors returns a freshly allocated sorted slice of v's out-neighbors.
func (g *DynGraph) Neighbors(v int32) []int32 {
	out := make([]int32, 0, g.degree[v])
	g.ForEachNeighbor(v, func(w int32, _ float32, _ int64) { out = append(out, w) })
	slices.Sort(out)
	return out
}

// CommonNeighborCount counts vertices adjacent to both u and v — the inner
// loop of incremental triangle counting and streaming Jaccard. Cost is
// O(min-degree) expected via a hash probe of the smaller list.
func (g *DynGraph) CommonNeighborCount(u, v int32) int32 {
	if g.degree[u] > g.degree[v] {
		u, v = v, u
	}
	if g.degree[u] == 0 {
		return 0
	}
	small := make(map[int32]struct{}, g.degree[u])
	g.ForEachNeighbor(u, func(w int32, _ float32, _ int64) { small[w] = struct{}{} })
	var count int32
	g.ForEachNeighbor(v, func(w int32, _ float32, _ int64) {
		if _, ok := small[w]; ok {
			count++
		}
	})
	return count
}

// Snapshot freezes the current state as an immutable CSR graph, the bridge
// from the streaming side of Fig. 2 to batch analytics on extracted
// subgraphs. Self-loops are excluded, rows are sorted by target, weights and
// timestamps are carried. It is SnapshotDelta with every row touched: one
// pass over the block chains, no global sort.
func (g *DynGraph) Snapshot() *graph.Graph { return g.emitRows(nil, nil, nil) }

// FromCSRGraph bulk-loads an immutable graph into a fresh dynamic graph in
// O(arcs). CSR rows are copied verbatim into full block chains — no per-edge
// duplicate scan (CSR rows are already duplicate-free) and no symmetric
// re-insertion (an undirected CSR stores both arc directions) — so loading
// costs one pass over the rows where per-edge inserts pay O(degree) each.
// This is the recovery path for flat snapshots.
func FromCSRGraph(src *graph.Graph) *DynGraph {
	n := src.NumVertices()
	g := New(n, src.Directed())
	for v := int32(0); v < n; v++ {
		targets, weights, times := src.Neighbors(v), src.NeighborWeights(v), src.NeighborTimes(v)
		var last *block
		for at := 0; at < len(targets); at += g.blockSize {
			end := min(at+g.blockSize, len(targets))
			nb := &block{slots: make([]edgeSlot, end-at, g.blockSize)}
			for i := range nb.slots {
				j := at + i
				s := &nb.slots[i]
				s.dst = targets[j]
				if weights != nil {
					s.weight = weights[j]
				} else {
					s.weight = 1
				}
				if times != nil {
					s.time = times[j]
				}
			}
			if last == nil {
				g.adj[v] = nb
			} else {
				last.next = nb
			}
			last = nb
		}
		g.degree[v] = int32(len(targets))
	}
	g.numArcs = src.NumEdges()
	return g
}

// Validate checks internal consistency: degree counters match slot counts,
// undirected symmetry holds, and no duplicate arcs exist.
func (g *DynGraph) Validate() error {
	var arcs int64
	for v := int32(0); v < g.NumVertices(); v++ {
		seen := make(map[int32]bool)
		count := int32(0)
		for b := g.adj[v]; b != nil; b = b.next {
			for _, s := range b.slots {
				if seen[s.dst] {
					return fmt.Errorf("dyngraph: duplicate arc %d->%d", v, s.dst)
				}
				seen[s.dst] = true
				count++
				if !g.directed && !g.HasEdge(s.dst, v) {
					return fmt.Errorf("dyngraph: asymmetric arc %d->%d", v, s.dst)
				}
			}
		}
		if count != g.degree[v] {
			return fmt.Errorf("dyngraph: vertex %d degree %d != stored %d", v, count, g.degree[v])
		}
		arcs += int64(count)
	}
	if arcs != g.numArcs {
		return fmt.Errorf("dyngraph: arc count %d != stored %d", arcs, g.numArcs)
	}
	return nil
}
