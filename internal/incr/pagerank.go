package incr

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/par"
)

// PRState maintains a PageRank vector across graph versions by selective
// Jacobi sweeps: after an edit batch only vertices whose pull inputs can
// have changed are recomputed, and per-sweep corrections propagate along
// adjacency until total change falls below the kernel's tolerance. The
// update rule is identical to kernels.PageRank (pull iteration, uniform
// dangling redistribution), so an advanced vector agrees with a full run on
// the same snapshot to within the convergence tolerance.
type PRState struct {
	version int64
	opt     kernels.PageRankOptions
	rank    []float64
	base    float64 // converged uniform term: (1-d)/n + d*dangling/n

	// Scratch kept across advances, never handed out: the sweep's next and
	// out-degree vectors, its membership marks (all false between advances),
	// the identity list dense sweeps walk, the sweep and frontier lists, and
	// rank vectors callers gave back with Release.
	next, outDeg         []float64
	inSweep              []bool
	all, sweep, frontier []int32
	ranks                spares[float64]
}

// Chunk sizes of the sweeps' par loops, fixed so results do not depend on
// the worker count: pullGrain vertices pull their rows per chunk (a sweep
// touching fewer runs as one chunk, with no fan-out), scanGrain entries of a
// flat vector are summed per chunk.
const (
	pullGrain = 1024
	scanGrain = 8192
)

// NewPRState returns the fixed point of the edgeless n-vertex graph at
// version 0 (uniform rank; every vertex is dangling).
func NewPRState(n int32, opt kernels.PageRankOptions) *PRState {
	st := &PRState{opt: opt}
	if n == 0 {
		return st
	}
	st.rank = make([]float64, n)
	invN := 1.0 / float64(n)
	for i := range st.rank {
		st.rank[i] = invN
	}
	st.base = (1-opt.Damping)*invN + opt.Damping*invN // dangling mass 1
	return st
}

// SeedPR anchors state at version from a full kernel result over g. The
// rank vector is copied.
func SeedPR(rank []float64, g *graph.Graph, opt kernels.PageRankOptions, version int64) *PRState {
	st := &PRState{version: version, opt: opt, rank: append([]float64(nil), rank...)}
	n := g.NumVertices()
	if n == 0 {
		return st
	}
	dangling := 0.0
	for v := int32(0); v < n; v++ {
		if g.Degree(v) == 0 {
			dangling += st.rank[v]
		}
	}
	invN := 1.0 / float64(n)
	st.base = (1-opt.Damping)*invN + opt.Damping*dangling*invN
	return st
}

// Version returns the graph version the state currently matches.
func (st *PRState) Version() int64 { return st.version }

// Release gives back a rank vector this state (or the kernel it was seeded
// from) returned, once nothing reads it any more; a later Advance writes its
// vector there instead of allocating. The state's current vector is never
// taken back. Under go test the vector is poisoned to NaN first, so a reader
// still holding it fails. Vectors never released stay valid forever. A nil
// state takes nothing back.
func (st *PRState) Release(rank []float64) {
	if st != nil && len(rank) > 0 && len(rank) == len(st.rank) && &rank[0] != &st.rank[0] {
		st.ranks.put(rank, math.NaN())
	}
}

// Advance moves the rank vector from the state's version to version, where
// g is the CSR snapshot at the target version. It returns the advanced
// vector (shared with the state — callers must not mutate it; the next
// advance writes a new vector, so the returned slice stays stable until it
// is given back with Release), the number
// of sweeps used, and an error on contract violation or cancellation, in
// which case the state is unchanged. Undirected graphs use selective
// frontier sweeps seeded from the batch-touched vertices; directed graphs
// fall back to warm-started full-width sweeps (the transpose needed for
// selective pull would have to be maintained too — a documented tradeoff,
// and graphd serves undirected graphs by default).
func (st *PRState) Advance(ctx context.Context, g *graph.Graph, version int64, batches []Batch) ([]float64, int, error) {
	if err := validateAdvance(st.version, version, batches); err != nil {
		return nil, 0, err
	}
	n := g.NumVertices()
	if int32(len(st.rank)) != n {
		return nil, 0, fmt.Errorf("incr: pagerank state has %d vertices, snapshot has %d", len(st.rank), n)
	}
	if n == 0 {
		st.version = version
		return st.rank, 0, nil
	}
	touched := TouchedVertices(batches, n)
	if len(touched) == 0 {
		st.version = version
		return st.rank, 0, nil
	}
	if g.Directed() {
		return st.advanceDense(ctx, g, version)
	}
	return st.advanceSelective(ctx, g, version, touched)
}

func (st *PRState) advanceSelective(ctx context.Context, g *graph.Graph, version int64, touched []int32) ([]float64, int, error) {
	n := g.NumVertices()
	opt := st.opt
	d := opt.Damping
	invN := 1.0 / float64(n)
	add := func(a, b float64) float64 { return a + b }

	rank := st.ranks.take(n)
	copy(rank, st.rank)
	next := grow(&st.next, n)
	outDeg := grow(&st.outDeg, n)
	// Dangling mass is recomputed from scratch, as in SeedPR: degrees may
	// have crossed zero in either direction across the batch window.
	dangling := 0.0
	for v := int32(0); v < n; v++ {
		if outDeg[v] = float64(g.Degree(v)); outDeg[v] == 0 {
			dangling += rank[v]
		}
	}

	// eps is the propagation cutoff: per-vertex changes below it are still
	// committed to the vector but not treated as new frontier. It sits far
	// below the kernel tolerance (which bounds a whole-vector L1 sum), so
	// truncation error stays well inside the equivalence bound the
	// differential oracle asserts.
	eps := opt.Tolerance * invN / 64

	if int32(len(st.inSweep)) != n {
		st.inSweep = make([]bool, n)
	}
	inSweep, sweep, frontier := st.inSweep, st.sweep[:0], st.frontier[:0]
	defer func() { // keep the lists' storage; inSweep is all false between advances
		for _, v := range sweep {
			inSweep[v] = false
		}
		st.sweep, st.frontier = sweep[:0], frontier[:0]
	}()
	addVertex := func(v int32) {
		if !inSweep[v] {
			inSweep[v] = true
			sweep = append(sweep, v)
		}
	}
	// First-sweep support: the touched vertices themselves (for undirected
	// graphs their in-lists are their adjacency rows, which changed) plus
	// their current neighbors (each gained/lost a pull term or sees a
	// changed neighbor degree).
	ops := 0
	for _, v := range touched {
		addVertex(v)
		for _, w := range g.Neighbors(v) {
			if ops++; ops%ctxCheckEvery == 0 {
				if err := par.CtxErr(ctx); err != nil {
					return nil, 0, err
				}
			}
			addVertex(w)
		}
	}

	full := false
	prevBase := st.base
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		base := (1-d)*invN + d*dangling*invN
		// A base shift moves every vertex by the same amount, so once it
		// exceeds the propagation cutoff the sweep must go dense; it stays
		// dense from then on, degenerating to the warm-started full kernel.
		if !full && math.Abs(base-prevBase) > eps {
			full = true
		}
		active := sweep
		if full {
			if int32(len(st.all)) != n {
				st.all = make([]int32, n)
				for i := range st.all {
					st.all[i] = int32(i)
				}
			}
			active = st.all
		}
		delta, err := par.ReduceCtx(ctx, len(active), par.Opt{Name: "incr.pagerank.pull", Grain: pullGrain},
			func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					v := active[i]
					sum := 0.0
					for _, u := range g.Neighbors(v) {
						sum += rank[u] / outDeg[u]
					}
					next[v] = base + d*sum
					s += math.Abs(next[v] - rank[v])
				}
				return s
			}, add)
		if err != nil {
			return nil, 0, err
		}
		// Commit the sweep sequentially (deterministic), maintaining the
		// dangling mass and collecting the outgoing correction frontier.
		frontier = frontier[:0]
		for _, v := range active {
			diff := next[v] - rank[v]
			if diff == 0 {
				continue
			}
			rank[v] = next[v]
			if outDeg[v] == 0 {
				dangling += diff
			}
			if math.Abs(diff) > eps {
				frontier = append(frontier, v)
			}
		}
		prevBase = base
		if delta < opt.Tolerance {
			iters++
			break
		}
		if !full {
			// Next sweep recomputes the in-dependents of every vertex whose
			// rank moved beyond the cutoff — for an undirected graph, its
			// neighbors. Base drift from dangling changes is caught at the
			// top of the next sweep.
			for _, v := range sweep {
				inSweep[v] = false
			}
			sweep = sweep[:0]
			ops = 0
			for _, v := range frontier {
				for _, w := range g.Neighbors(v) {
					if ops++; ops%ctxCheckEvery == 0 {
						if err := par.CtxErr(ctx); err != nil {
							return nil, 0, err
						}
					}
					addVertex(w)
				}
			}
		}
	}

	st.rank = rank
	st.base = (1-d)*invN + d*dangling*invN
	st.version = version
	return rank, iters, nil
}

// advanceDense runs warm-started full-width Jacobi sweeps — the same update
// rule as kernels.PageRankCtx but starting from the previous vector instead
// of uniform, which is where the incremental win for directed graphs comes
// from (few sweeps to re-converge after a small batch). Materializing the
// transpose costs O(n+m) per advance.
func (st *PRState) advanceDense(ctx context.Context, g *graph.Graph, version int64) ([]float64, int, error) {
	n := g.NumVertices()
	gt := g.Transpose()
	opt := st.opt
	d := opt.Damping
	invN := 1.0 / float64(n)
	add := func(a, b float64) float64 { return a + b }

	rank := st.ranks.take(n)
	copy(rank, st.rank)
	next := grow(&st.next, n)
	outDeg := grow(&st.outDeg, n)
	for v := int32(0); v < n; v++ {
		outDeg[v] = float64(g.Degree(v))
	}
	defer func() { st.next = next }() // whichever buffer rank is not

	base := st.base
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		dangling, err := par.ReduceCtx(ctx, int(n), par.Opt{Name: "incr.pagerank.dangling", Grain: scanGrain},
			func(lo, hi int) float64 {
				s := 0.0
				for v := lo; v < hi; v++ {
					if outDeg[v] == 0 {
						s += rank[v]
					}
				}
				return s
			}, add)
		if err != nil {
			return nil, 0, err
		}
		base = (1-d)*invN + d*dangling*invN
		delta, err := par.ReduceCtx(ctx, int(n), par.Opt{Name: "incr.pagerank.pull", Grain: pullGrain},
			func(lo, hi int) float64 {
				s := 0.0
				for v := lo; v < hi; v++ {
					sum := 0.0
					for _, u := range gt.Neighbors(int32(v)) {
						sum += rank[u] / outDeg[u]
					}
					next[v] = base + d*sum
					s += math.Abs(next[v] - rank[v])
				}
				return s
			}, add)
		if err != nil {
			return nil, 0, err
		}
		rank, next = next, rank
		if delta < opt.Tolerance {
			iters++
			break
		}
	}

	st.rank = rank
	st.base = base
	st.version = version
	return rank, iters, nil
}
