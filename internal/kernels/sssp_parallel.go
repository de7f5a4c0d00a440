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
	// current distance. A relaxation pass that improves v sets it to the
	// pass's mark (negative, so it never reads as settled): v is re-settled
	// with the better distance, and the pass lists it once however many of
	// its arcs improve it.
	stamp := make([]int32, n)
	mark := int32(0)
	// setStamp sets stamp[v] to to and reports whether it was not already.
	setStamp := func(v, to int32) bool {
		for {
			s := atomic.LoadInt32(&stamp[v])
			if s == to {
				return false
			}
			if atomic.CompareAndSwapInt32(&stamp[v], s, to) {
				return true
			}
		}
	}

	buckets := newBucketStore(int(n))
	buckets.add(0, 0, src)
	bi, maxBucket := 0, 0
	distribute := func(improved []int32) {
		for _, w := range improved {
			b := int(distAt(w) / delta)
			buckets.add(bi, b, w)
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
				if int(distAt(v)/delta) != bi || !setStamp(v, int32(bi)+1) {
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
				if casMin(w, dv+ew) && setStamp(w, mark) {
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

	// cur and improved are reused bucket after bucket. A pass lists a
	// vertex once (bar a re-open) and a bucket settles it once, and on R-MAT
	// neither list passes 0.45 n, so both start at n/2 and grow by append
	// only beyond that. out holds the per-worker buffers. The order improved
	// vertices arrive in follows the schedule, which the distances (a unique
	// fixpoint) cannot see.
	cur, improved := make([]int32, 0, n/2), make([]int32, 0, n/2)
	var out par.Frontier[int32]
	for ; bi <= maxBucket; bi++ {
		// cur holds the vertices this bucket has settled, then the round
		// drained behind them.
		cur = cur[:0]
		for !buckets.empty(bi) {
			settled := len(cur)
			cur = buckets.drain(bi, cur)
			frontier, light, mark = cur[settled:], true, mark-1
			improved = out.Collect(improved, len(frontier), par.Opt{Name: "sssp.light", Grain: grainOf(frontier)}, relax)
			// Claimed entries relaxed their light edges; keep them for the
			// heavy phase (duplicates from re-opening are harmless).
			kept := cur[:settled]
			for _, v := range frontier {
				if int(distAt(v)/delta) == bi && atomic.LoadInt32(&stamp[v]) == int32(bi)+1 {
					kept = append(kept, v)
				}
			}
			cur = kept
			distribute(improved)
		}
		if len(cur) > 0 {
			frontier, light, mark = cur, false, mark-1
			improved = out.Collect(improved, len(cur), par.Opt{Name: "sssp.heavy", Grain: grainOf(cur)}, relax)
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

// bucketBlock is how many entries one block of a bucketStore holds.
const bucketBlock = 64

// bucketStore is delta-stepping's bucket array in one store. Buckets live
// in a ring over the window [bi, bi+len(ring)), the cyclic bucket array of
// the original delta-stepping: a relaxation out of bucket bi lands at most
// maxWeight/delta + 1 buckets ahead, so the ring grows to that span
// (choose delta accordingly). A bucket is a chain of blocks carved from one
// slab, filled at its tail and drained whole, and a drained bucket's blocks
// go back on a free list. The slab is sized once, for n entries and a
// block for each of the first slots: on R-MAT the live entries (stale ones
// included, which are skipped on claim) peak near 0.6 n, so it grows, by
// half, only on inputs that keep more than that in flight.
type bucketStore struct {
	slab []int32       // entries; block k is slab[k*bucketBlock:][:bucketBlock]
	link []int32       // the block after k in its chain or the free list; -1 ends it
	free int32         // first free block, -1 when there is none
	ring []bucketChain // one chain per slot of the window
}

// bucketChain is one bucket: its first and last block (-1 when the bucket
// is empty) and the entries in the last.
type bucketChain struct{ head, tail, fill int32 }

func newBucketStore(n int) *bucketStore {
	s := &bucketStore{ring: make([]bucketChain, 8), free: -1}
	for i := range s.ring {
		s.ring[i].head = -1
	}
	s.addBlocks((n+bucketBlock-1)/bucketBlock + len(s.ring))
	return s
}

// addBlocks extends the slab by k blocks and puts them on the free list.
func (s *bucketStore) addBlocks(k int) {
	first := len(s.link)
	slab, link := make([]int32, (first+k)*bucketBlock), make([]int32, first+k)
	copy(slab, s.slab)
	copy(link, s.link)
	s.slab, s.link = slab, link
	for b := first + k - 1; b >= first; b-- {
		s.link[b], s.free = s.free, int32(b)
	}
}

// add appends v to bucket b, which must lie at or after the current
// bucket bi.
func (s *bucketStore) add(bi, b int, v int32) {
	if b-bi >= len(s.ring) {
		grown := make([]bucketChain, 2*(b-bi))
		for i := range grown {
			grown[i].head = -1
		}
		for j := bi; j < bi+len(s.ring); j++ {
			grown[j%len(grown)] = s.ring[j%len(s.ring)]
		}
		s.ring = grown
	}
	c := &s.ring[b%len(s.ring)]
	if c.head < 0 || c.fill == bucketBlock {
		if s.free < 0 {
			s.addBlocks(len(s.link)/2 + 1)
		}
		k := s.free
		s.free, s.link[k] = s.link[k], -1
		if c.head < 0 {
			c.head = k
		} else {
			s.link[c.tail] = k
		}
		c.tail, c.fill = k, 0
	}
	s.slab[int(c.tail)*bucketBlock+int(c.fill)] = v
	c.fill++
}

// empty reports whether bucket b holds no entries.
func (s *bucketStore) empty(b int) bool { return s.ring[b%len(s.ring)].head < 0 }

// drain appends bucket b's entries to dst, empties the bucket and frees its
// blocks.
func (s *bucketStore) drain(b int, dst []int32) []int32 {
	c := &s.ring[b%len(s.ring)]
	for k := c.head; k >= 0; {
		lo, hi := int(k)*bucketBlock, int(k+1)*bucketBlock
		if k == c.tail {
			hi = lo + int(c.fill)
		}
		dst = append(dst, s.slab[lo:hi]...)
		next := s.link[k]
		s.link[k], s.free = s.free, k
		k = next
	}
	c.head = -1
	return dst
}
