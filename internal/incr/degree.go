package incr

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/par"
)

// DegreeState maintains the per-vertex degree score vector behind top-k
// degree queries. Advancing patches only batch-touched entries, and feeding
// the vector to kernels.TopKByScore yields output byte-identical to
// kernels.TopKByDegree on the same snapshot (which builds exactly this
// vector internally).
type DegreeState struct {
	version int64
	degrees []float64
	spares  spares[float64] // vectors callers gave back with Release
}

// NewDegreeState returns the all-zero vector for an edgeless n-vertex graph
// at version 0.
func NewDegreeState(n int32) *DegreeState {
	return &DegreeState{degrees: make([]float64, n)}
}

// SeedDegrees anchors state at version by reading every degree from g.
func SeedDegrees(g *graph.Graph, version int64) *DegreeState {
	n := g.NumVertices()
	st := &DegreeState{version: version, degrees: make([]float64, n)}
	for v := int32(0); v < n; v++ {
		st.degrees[v] = float64(g.Degree(v))
	}
	return st
}

// Version returns the graph version the state currently matches.
func (st *DegreeState) Version() int64 { return st.version }

// Degrees returns the current vector. It must not be mutated; the state
// never writes to a previously returned slice unless it is given back with
// Release.
func (st *DegreeState) Degrees() []float64 { return st.degrees }

// Release gives back a vector this state returned, once nothing reads it
// any more; a later Advance writes its copy there instead of allocating.
// The current vector is never taken back. Under go test the vector is
// poisoned to NaN first, so a reader still holding it fails. A nil state
// takes nothing back.
func (st *DegreeState) Release(degrees []float64) {
	if st != nil && len(degrees) > 0 && len(degrees) == len(st.degrees) && &degrees[0] != &st.degrees[0] {
		st.spares.put(degrees, math.NaN())
	}
}

// Advance patches the touched entries from g, the CSR snapshot at the
// target version, and returns the new vector: a copy (into a released
// vector when there is one), so previously returned vectors stay
// immutable. On error the state is unchanged.
func (st *DegreeState) Advance(ctx context.Context, g *graph.Graph, version int64, batches []Batch) ([]float64, error) {
	n := g.NumVertices()
	if int32(len(st.degrees)) != n {
		return nil, fmt.Errorf("incr: degree state has %d vertices, snapshot has %d", len(st.degrees), n)
	}
	if err := validateAdvance(st.version, version, batches); err != nil {
		return nil, err
	}
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	degrees := st.spares.take(n)
	copy(degrees, st.degrees)
	for i, v := range TouchedVertices(batches, n) {
		if i%ctxCheckEvery == ctxCheckEvery-1 {
			if err := par.CtxErr(ctx); err != nil {
				return nil, err
			}
		}
		degrees[v] = float64(g.Degree(v))
	}
	st.degrees = degrees
	st.version = version
	return degrees, nil
}
