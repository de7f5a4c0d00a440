package graph

import "fmt"

// FromCSRArrays freezes pre-assembled CSR arrays into an immutable Graph
// without going through an edge list and the Builder. It is how dyngraph
// snapshots (rows gathered from block chains, or copied verbatim from a
// previous snapshot) and the flat snapshot reader hand over their arrays.
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
	return &Graph{n: n, offsets: offsets, targets: targets, weights: weights, times: times, directed: directed}, nil
}

// CSR exposes the raw CSR arrays for bulk row-range copies (incremental
// snapshot patching). The slices alias internal storage and must be treated
// as read-only; weights/times are nil for unweighted/untimestamped graphs.
func (g *Graph) CSR() (offsets []int64, targets []int32, weights []float32, times []int64) {
	return g.offsets, g.targets, g.weights, g.times
}
