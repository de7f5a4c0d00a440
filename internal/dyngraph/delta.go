package dyngraph

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// SnapshotDelta freezes the current state as an immutable CSR graph by
// patching a previous snapshot: adjacency rows of vertices listed in touched
// are rebuilt from the dynamic block chains, every other row is bulk-copied
// from prev. The result is identical to Snapshot() (self-loops excluded,
// rows sorted by target, weights and timestamps carried), but costs
// O(n + m_copy + sum of touched-row rebuilds) where Snapshot() walks and
// sorts every row.
//
// touched must contain every vertex whose adjacency row may have changed
// since prev was taken; for undirected graphs that means both endpoints of
// every applied edit. Out-of-range entries are ignored. When prev is nil or
// structurally incompatible (vertex count, directedness, missing weight or
// timestamp arrays), SnapshotDelta falls back to a full Snapshot().
func (g *DynGraph) SnapshotDelta(prev *graph.Graph, touched []int32) *graph.Graph {
	n := g.NumVertices()
	if prev == nil || prev.NumVertices() != n || prev.Directed() != g.directed ||
		!prev.Weighted() || !prev.Timestamped() {
		return g.Snapshot()
	}
	mark := make([]bool, n)
	for _, v := range touched {
		if v >= 0 && v < n {
			mark[v] = true
		}
	}
	return g.emitRows(prev, mark)
}

// emitRows is the one CSR emitter behind Snapshot and SnapshotDelta: degree
// count, offsets, then per row either a gather from the block chain sorted
// by target (self-loops dropped) or a copy from prev. A row is copied when
// prev is non-nil and the row is unmarked; prev must then be compatible as
// SnapshotDelta checks. One allocation per output array, plus the row
// buffer.
func (g *DynGraph) emitRows(prev *graph.Graph, mark []bool) *graph.Graph {
	n := g.NumVertices()
	var pOff []int64
	var pTgt []int32
	var pW []float32
	var pT []int64
	if prev != nil {
		pOff, pTgt, pW, pT = prev.CSR()
	}
	keep := func(v int32) bool { return prev != nil && !mark[v] }

	offsets := make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		if keep(v) {
			offsets[v+1] = offsets[v] + (pOff[v+1] - pOff[v])
			continue
		}
		cnt := int64(g.degree[v])
		if g.HasEdge(v, v) { // snapshots never carry self-loops
			cnt--
		}
		offsets[v+1] = offsets[v] + cnt
	}

	m := offsets[n]
	targets := make([]int32, m)
	weights := make([]float32, m)
	times := make([]int64, m)
	var row []edgeSlot
	for v := int32(0); v < n; {
		if keep(v) {
			// Untouched rows keep their previous lengths, so a maximal run of
			// them is one contiguous copy from the old arrays.
			u := v
			for u < n && keep(u) {
				u++
			}
			copy(targets[offsets[v]:offsets[u]], pTgt[pOff[v]:pOff[u]])
			copy(weights[offsets[v]:offsets[u]], pW[pOff[v]:pOff[u]])
			copy(times[offsets[v]:offsets[u]], pT[pOff[v]:pOff[u]])
			v = u
			continue
		}
		row = row[:0]
		for b := g.adj[v]; b != nil; b = b.next {
			for _, s := range b.slots {
				if s.dst != v {
					row = append(row, s)
				}
			}
		}
		slices.SortFunc(row, func(a, b edgeSlot) int { return cmp.Compare(a.dst, b.dst) })
		base := offsets[v]
		for i, s := range row {
			targets[base+int64(i)] = s.dst
			weights[base+int64(i)] = s.weight
			times[base+int64(i)] = s.time
		}
		v++
	}

	snap, err := graph.FromCSRArrays(n, g.directed, offsets, targets, weights, times)
	if err != nil {
		// offsets is a prefix sum of non-negative counts and the arrays are
		// made at its last entry, so only a broken degree counter gets here.
		panic("dyngraph: emitted CSR rejected: " + err.Error())
	}
	return snap
}
