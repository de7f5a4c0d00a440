package kernels

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// DeltaSteppingParallel computes shortest paths with bucketed delta-stepping
// where each bucket's light- and heavy-edge relaxations fan out through the
// par scheduler. Distances are maintained as CAS-min updates on the raw
// float64 bits, so concurrent relaxations race benignly toward the same
// fixpoint: the minimum over all paths of the forward-evaluated float path
// length. That fixpoint is unique, which makes the distance vector
// byte-identical for any worker count and schedule.
//
// Parents are not recorded during the race; instead a deterministic
// post-pass sets Parent[w] to the smallest v with Dist[v]+w(v,w) == Dist[w],
// so the whole result is worker-count independent (and generally differs
// from the sequential DeltaStepping parents only in tie-breaking).
func DeltaSteppingParallel(g *graph.Graph, src int32, delta float64) *SSSPResult {
	if delta <= 0 {
		delta = 1
	}
	n := g.NumVertices()
	res := &SSSPResult{Source: src, Dist: make([]float64, n), Parent: make([]int32, n)}
	if n == 0 {
		return res
	}
	distBits := make([]uint64, n)
	infBits := math.Float64bits(Inf)
	for i := range distBits {
		distBits[i] = infBits
		res.Parent[i] = Unreached
	}
	distBits[src] = 0 // Float64bits(0) == 0

	distAt := func(v int32) float64 {
		return math.Float64frombits(atomic.LoadUint64(&distBits[v]))
	}
	casMin := func(w int32, nd float64) bool {
		ndBits := math.Float64bits(nd)
		for {
			cur := atomic.LoadUint64(&distBits[w])
			if math.Float64frombits(cur) <= nd {
				return false
			}
			if atomic.CompareAndSwapUint64(&distBits[w], cur, ndBits) {
				return true
			}
		}
	}

	// stamp[v] == bi+1 when v has been settled during bucket bi at its
	// current distance; an improvement within the bucket resets it to 0 so v
	// is re-settled with the better distance.
	stamp := make([]int32, n)
	claim := func(v, bi int32) bool {
		for {
			s := atomic.LoadInt32(&stamp[v])
			if s == bi+1 {
				return false
			}
			if atomic.CompareAndSwapInt32(&stamp[v], s, bi+1) {
				return true
			}
		}
	}

	// Buckets live in a ring over the window [bi, bi+len(ring)), the cyclic
	// bucket array of the original delta-stepping: a relaxation out of
	// bucket bi lands at most maxWeight/delta + 1 buckets ahead, so the ring
	// grows to that span (choose delta accordingly) and its slots — and
	// their storage — are reused as bi advances. Duplicates are fine (stale
	// entries are skipped on claim).
	ring := make([][]int32, 8)
	ring[0] = append(ring[0], src)
	bi, maxBucket := 0, 0
	distribute := func(improved []int32) {
		for _, w := range improved {
			b := int(distAt(w) / delta)
			if b-bi >= len(ring) {
				grown := make([][]int32, 2*(b-bi))
				for j := bi; j < bi+len(ring); j++ {
					grown[j%len(grown)] = ring[j%len(ring)]
				}
				ring = grown
			}
			ring[b%len(ring)] = append(ring[b%len(ring)], w)
			maxBucket = max(maxBucket, b)
		}
	}

	// relax relaxes one frontier chunk's edges in the given weight class,
	// appending the vertices it improved.
	var frontier []int32
	var light bool
	relax := func(improved []int32, lo, hi int) []int32 {
		for _, v := range frontier[lo:hi] {
			if light {
				// Skip entries whose distance moved on (to an earlier,
				// already-processed bucket) before claiming.
				if int(distAt(v)/delta) != bi || !claim(v, int32(bi)) {
					continue
				}
			}
			dv := distAt(v)
			ns := g.Neighbors(v)
			ws := g.NeighborWeights(v)
			for i, w := range ns {
				ew := 1.0
				if ws != nil {
					ew = float64(ws[i])
				}
				if (ew <= delta) != light {
					continue
				}
				if casMin(w, dv+ew) {
					// Re-open w if it had already settled this bucket.
					atomic.CompareAndSwapInt32(&stamp[w], int32(bi)+1, 0)
					improved = append(improved, w)
				}
			}
		}
		return improved
	}

	// grainOf chunks a relaxation pass by the arcs its vertices hold: most
	// buckets are too small to be worth waking a worker for.
	grainOf := func(vs []int32) int {
		arcs := int64(0)
		for _, v := range vs {
			arcs += int64(g.Degree(v))
		}
		return arcGrain(len(vs), arcs)
	}

	// cur, improved and settled are reused bucket after bucket; out holds
	// the per-worker buffers. The order improved vertices arrive in follows
	// the schedule, which the distances (a unique fixpoint) cannot see.
	var cur, improved, settled []int32
	var out par.Frontier[int32]
	for ; bi <= maxBucket; bi++ {
		slot := bi % len(ring)
		settled = settled[:0]
		for len(ring[slot]) > 0 {
			cur, ring[slot] = ring[slot], cur[:0]
			frontier, light = cur, true
			improved = out.Collect(improved, len(cur), par.Opt{Name: "sssp.light", Grain: grainOf(cur)}, relax)
			// Claimed entries relaxed their light edges; remember them for
			// the heavy phase (duplicates from re-opening are harmless).
			for _, v := range cur {
				if int(distAt(v)/delta) == bi && atomic.LoadInt32(&stamp[v]) == int32(bi)+1 {
					settled = append(settled, v)
				}
			}
			distribute(improved)
			slot = bi % len(ring) // distribute may have grown the ring
		}
		if len(settled) > 0 {
			frontier, light = settled, false
			improved = out.Collect(improved, len(settled), par.Opt{Name: "sssp.heavy", Grain: grainOf(settled)}, relax)
			distribute(improved)
		}
	}

	// Deterministic parent assignment: Parent[w] = min{v : Dist[v]+w(v,w) ==
	// Dist[w]}. At least one such v exists for every reached w != src — the
	// relaxation that wrote w's final distance used its source's final
	// distance (had that source improved later, w would have improved too).
	casMinParent := func(w, v int32) {
		for {
			p := atomic.LoadInt32(&res.Parent[w])
			if p != Unreached && p <= v {
				return
			}
			if atomic.CompareAndSwapInt32(&res.Parent[w], p, v) {
				return
			}
		}
	}
	par.For(int(n), par.Opt{Name: "sssp.parent"}, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			dv := math.Float64frombits(distBits[v])
			res.Dist[v] = dv
			if math.IsInf(dv, 1) {
				continue
			}
			ns := g.Neighbors(v)
			ws := g.NeighborWeights(v)
			for i, w := range ns {
				if w == src {
					continue
				}
				ew := 1.0
				if ws != nil {
					ew = float64(ws[i])
				}
				if dv+ew == math.Float64frombits(distBits[w]) {
					casMinParent(w, v)
				}
			}
		}
	})
	res.Parent[src] = src
	return res
}
