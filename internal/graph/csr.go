package graph

import (
	"fmt"
	"slices"
)

// FromCSRArrays freezes pre-assembled CSR arrays into an immutable Graph in
// the contiguous layout, without going through an edge list and the Builder.
// It is how the flat snapshot reader hands over its arrays. (dyngraph
// snapshots, whose successive versions share rows, are built by an Emitter
// instead.)
//
// The arrays are adopted, not copied: the caller must not retain or mutate
// them after the call. offsets must have length n+1 (nil is accepted when
// n == 0), targets/weights/times lengths must equal offsets[n]; weights and
// times may be nil for unweighted/untimestamped graphs. Only O(n) structural
// checks run here (monotone offsets, length agreement); per-arc invariants
// (in-range, sorted rows) remain the caller's responsibility and are still
// verifiable with Validate.
func FromCSRArrays(n int32, directed bool, offsets []int64, targets []int32, weights []float32, times []int64) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n == 0 && len(offsets) == 0 {
		return &Graph{directed: directed}, nil
	}
	if int32(len(offsets)) != n+1 {
		return nil, fmt.Errorf("graph: offsets length %d for %d vertices", len(offsets), n)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for v := int32(0); v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at %d", v)
		}
	}
	if offsets[n] != int64(len(targets)) {
		return nil, fmt.Errorf("graph: final offset %d != targets length %d", offsets[n], len(targets))
	}
	if weights != nil && len(weights) != len(targets) {
		return nil, fmt.Errorf("graph: weights length %d != targets length %d", len(weights), len(targets))
	}
	if times != nil && len(times) != len(targets) {
		return nil, fmt.Errorf("graph: times length %d != targets length %d", len(times), len(targets))
	}
	return newCSR(n, directed, offsets, targets, weights, times), nil
}

// CSR returns g as contiguous CSR arrays: offsets of length n+1 (nil for the
// zero graph), row v at targets[offsets[v]:offsets[v+1]], weights/times nil
// for unweighted/untimestamped graphs. For a contiguous graph the slices
// alias internal storage and must be treated as read-only. An arena-backed
// graph (a dyngraph snapshot) is compacted into fresh arrays on every call —
// O(n + arcs) time and memory — so per-row work belongs on Neighbors and its
// siblings; CSR is for whole-graph hand-overs (the snapshot file writer).
func (g *Graph) CSR() (offsets []int64, targets []int32, weights []float32, times []int64) {
	if g.arena == nil {
		return g.offsets, g.targets, g.weights, g.times
	}
	offsets = make([]int64, g.n+1)
	for v := int32(0); v < g.n; v++ {
		offsets[v+1] = offsets[v] + (g.hi[v] - g.lo[v])
	}
	targets = make([]int32, g.m)
	weights = make([]float32, g.m)
	times = make([]int64, g.m)
	for v := int32(0); v < g.n; v++ {
		copy(targets[offsets[v]:], g.Neighbors(v))
		copy(weights[offsets[v]:], g.NeighborWeights(v))
		copy(times[offsets[v]:], g.NeighborTimes(v))
	}
	return offsets, targets, weights, times
}

// Equal reports whether g and o are the same graph: vertex count,
// directedness, which of weights and timestamps they carry, and every row's
// targets, weights and times. Layout is not compared — a patched snapshot
// equals the contiguous graph holding the same rows.
func (g *Graph) Equal(o *Graph) bool {
	if g.n != o.n || g.m != o.m || g.directed != o.directed ||
		g.Weighted() != o.Weighted() || g.Timestamped() != o.Timestamped() {
		return false
	}
	for v := int32(0); v < g.n; v++ {
		if !slices.Equal(g.Neighbors(v), o.Neighbors(v)) ||
			!slices.Equal(g.NeighborWeights(v), o.NeighborWeights(v)) ||
			!slices.Equal(g.NeighborTimes(v), o.NeighborTimes(v)) {
			return false
		}
	}
	return true
}
