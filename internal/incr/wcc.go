package incr

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/par"
)

// WCCState maintains weakly-connected-component labels across graph
// versions with a union-find forest. Edge inserts are plain unions; a batch
// that actually deleted edges triggers a recompute restricted to the
// components the delete endpoints belong to, since a deletion can only
// split its own component. Advance output is byte-identical to kernels.WCC
// (canonical min-member labels) on the same snapshot.
type WCCState struct {
	version int64
	parent  []int32
	size    []int32

	// Scratch kept across advances, never handed out: the double buffer the
	// next Advance copies parent/size into (the committed pair stays intact
	// until it succeeds), the split pass's root table and hit marks, the
	// relabel table, and label arrays callers gave back with Release.
	spareParent, spareSize []int32
	rootOf, minOf          []int32
	hit                    []bool
	labels                 spares[int32]
}

// NewWCCState returns all-singletons state for an edgeless n-vertex graph
// at version 0.
func NewWCCState(n int32) *WCCState {
	st := &WCCState{parent: make([]int32, n), size: make([]int32, n)}
	for i := range st.parent {
		st.parent[i] = int32(i)
		st.size[i] = 1
	}
	return st
}

// SeedWCC anchors state at version from a full kernel result. Labels are
// component minima, so using them directly as parents yields a valid
// two-level forest.
func SeedWCC(cc *kernels.CCResult, version int64) *WCCState {
	n := len(cc.Label)
	st := &WCCState{version: version, parent: make([]int32, n), size: make([]int32, n)}
	copy(st.parent, cc.Label)
	// Union-by-size only consults size at roots, so member entries may stay
	// zero.
	for _, l := range cc.Label {
		st.size[l]++
	}
	return st
}

// Version returns the graph version the state currently matches.
func (st *WCCState) Version() int64 { return st.version }

// Release gives back the label array of a result this state (or the kernel
// it was seeded from) returned, once nothing reads it any more; a later
// Advance writes its labels there instead of allocating. Under go test the
// labels are poisoned to -1 first, so a reader still holding the result
// fails. Results never released stay valid forever. A nil state takes
// nothing back.
func (st *WCCState) Release(cc *kernels.CCResult) {
	if st != nil && cc != nil && len(cc.Label) == len(st.parent) {
		st.labels.put(cc.Label, -1)
	}
}

// Advance moves the state from its current version to version by applying
// batches and returns labels identical to a full kernels.WCC over g, the
// CSR snapshot at the target version. On error (contract violation or
// cancellation) the state is unchanged. The result's labels are freshly
// allocated, or an array given back with Release.
func (st *WCCState) Advance(ctx context.Context, g *graph.Graph, version int64, batches []Batch) (*kernels.CCResult, error) {
	n := int32(len(st.parent))
	if g.NumVertices() != n {
		return nil, fmt.Errorf("incr: wcc state has %d vertices, snapshot has %d", n, g.NumVertices())
	}
	if err := validateAdvance(st.version, version, batches); err != nil {
		return nil, err
	}
	parent := append(st.spareParent[:0], st.parent...)
	size := append(st.spareSize[:0], st.size...)
	// The copies are this advance's until it commits; on error they stay
	// behind as the next one's double buffer.
	st.spareParent, st.spareSize = parent, size
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]] // path halving
			v = parent[v]
		}
		return v
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}

	ops := 0
	check := func() error {
		if ops++; ops%ctxCheckEvery == 0 {
			return par.CtxErr(ctx)
		}
		return nil
	}

	var affected []int32
	for _, b := range batches {
		for _, e := range b.Edits {
			if err := check(); err != nil {
				return nil, err
			}
			if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n || e.Src == e.Dst {
				continue // self-loops and out-of-range edits never reach the CSR
			}
			if e.Delete {
				if b.HadDeletes {
					affected = append(affected, e.Src, e.Dst)
				}
			} else {
				union(e.Src, e.Dst)
			}
		}
	}

	if len(affected) > 0 {
		// After the unions above the forest is a coarsening of g's true
		// components: every edge of g has both endpoints in one set (it
		// either survived from st.version or was union'd as an insert).
		// Deletions can only split the sets their endpoints sit in, so
		// exactly those sets are reset to singletons and re-solved from g's
		// adjacency. No edge of g crosses a set boundary, which makes the
		// restricted pass exact.
		rootOf := grow(&st.rootOf, n)
		for v := int32(0); v < n; v++ {
			rootOf[v] = find(v)
		}
		if int32(len(st.hit)) != n {
			st.hit = make([]bool, n)
		}
		hit := st.hit
		for _, v := range affected {
			hit[rootOf[v]] = true
		}
		defer func() { // hit is all false between advances
			for _, v := range affected {
				hit[rootOf[v]] = false
			}
		}()
		for v := int32(0); v < n; v++ {
			if hit[rootOf[v]] {
				parent[v] = v
				size[v] = 1
			}
		}
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		for v := int32(0); v < n; v++ {
			if !hit[rootOf[v]] {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if err := check(); err != nil {
					return nil, err
				}
				union(v, w)
			}
		}
	}

	// Canonical min-member labels, matching kernels.WCC: scanning vertices
	// in ascending order, the first vertex to reach a root is that
	// component's minimum.
	label := st.labels.take(n)
	minOf := grow(&st.minOf, n)
	for i := range minOf {
		minOf[i] = -1
	}
	var num int32
	for v := int32(0); v < n; v++ {
		r := find(v)
		if minOf[r] < 0 {
			minOf[r] = v
			num++
		}
		label[v] = r
	}
	for v := int32(0); v < n; v++ {
		label[v] = minOf[label[v]]
	}

	st.parent, st.spareParent = parent, st.parent
	st.size, st.spareSize = size, st.size
	st.version = version
	return &kernels.CCResult{Label: label, NumComponents: num}, nil
}
