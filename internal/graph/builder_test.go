package graph_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// buildOpts is one combination of the Builder's five switches.
type buildOpts struct {
	undirected, weighted, timestamped, dedup, selfLoops bool
}

func optsFromBits(bits uint8) buildOpts {
	return buildOpts{bits&1 != 0, bits&2 != 0, bits&4 != 0, bits&8 != 0, bits&16 != 0}
}

func buildWith(n int32, o buildOpts, edges []graph.Edge) *graph.Graph {
	b := graph.NewBuilder(n)
	if o.undirected {
		b.Undirected()
	}
	if o.weighted {
		b.Weighted()
	}
	if o.timestamped {
		b.Timestamped()
	}
	if o.dedup {
		b.DedupEdges()
	}
	if o.selfLoops {
		b.AllowSelfLoops()
	}
	for _, e := range edges {
		b.AddEdge(e)
	}
	return b.Build()
}

// referenceBuild is the Builder's previous implementation, kept verbatim as
// the oracle: filter self-loops, append the reversed copies, one stable
// comparison sort by (Src, Dst), adjacent-duplicate collapse, scatter to CSR.
func referenceBuild(n int32, o buildOpts, in []graph.Edge) (offsets []int64, targets []int32, weights []float32, times []int64) {
	edges := append([]graph.Edge(nil), in...)
	if !o.selfLoops {
		kept := edges[:0]
		for _, e := range edges {
			if e.Src != e.Dst {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	if o.undirected {
		m := len(edges)
		for i := 0; i < m; i++ {
			e := edges[i]
			edges = append(edges, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight, Time: e.Time})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	if o.dedup {
		out := edges[:0]
		for _, e := range edges {
			if len(out) > 0 && out[len(out)-1].Src == e.Src && out[len(out)-1].Dst == e.Dst {
				last := &out[len(out)-1]
				if e.Time < last.Time {
					last.Time = e.Time
				}
				if e.Weight < last.Weight {
					last.Weight = e.Weight
				}
				continue
			}
			out = append(out, e)
		}
		edges = out
	}
	offsets = make([]int64, n+1)
	targets = make([]int32, len(edges))
	if o.weighted {
		weights = make([]float32, len(edges))
	}
	if o.timestamped {
		times = make([]int64, len(edges))
	}
	for _, e := range edges {
		offsets[e.Src+1]++
	}
	for i := int32(0); i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		p := cursor[e.Src]
		cursor[e.Src]++
		targets[p] = e.Dst
		if weights != nil {
			weights[p] = e.Weight
		}
		if times != nil {
			times[p] = e.Time
		}
	}
	return offsets, targets, weights, times
}

func checkAgainstReference(t *testing.T, n int32, o buildOpts, edges []graph.Edge) {
	t.Helper()
	wOff, wTgt, wW, wT := referenceBuild(n, o, edges)
	g := buildWith(n, o, edges)
	off, tgt, w, ts := g.CSR()
	if !reflect.DeepEqual(off, wOff) || !reflect.DeepEqual(tgt, wTgt) ||
		!reflect.DeepEqual(w, wW) || !reflect.DeepEqual(ts, wT) {
		t.Fatalf("n=%d opts=%+v edges=%v:\n got %v %v %v %v\nwant %v %v %v %v",
			n, o, edges, off, tgt, w, ts, wOff, wTgt, wW, wT)
	}
	if g.NumVertices() != n || g.Directed() == o.undirected {
		t.Fatalf("n=%d opts=%+v: built graph reports n=%d directed=%v", n, o, g.NumVertices(), g.Directed())
	}
}

// TestBuilderMatchesStableSortReference holds the counting-sort Builder to
// the stable-sort one it replaced, array for array, on random multigraphs:
// few distinct endpoints, weights and times so parallel edges, self-loops
// and payload ties are all common, every option combination, n from 0 up.
func TestBuilderMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int32{0, 1, 2, 3, 7, 64} {
		for bits := uint8(0); bits < 32; bits++ {
			for _, m := range []int{0, 1, 5, 40, 400} {
				if n == 0 {
					m = 0
				}
				edges := make([]graph.Edge, m)
				for i := range edges {
					edges[i] = graph.Edge{
						Src: rng.Int31n(n), Dst: rng.Int31n(n),
						Weight: float32(rng.Intn(4)), Time: int64(rng.Intn(4)) - 1,
					}
				}
				checkAgainstReference(t, n, optsFromBits(bits), edges)
			}
		}
	}
}

// FuzzBuilderMatchesReference decodes an edge list from raw bytes (four per
// edge: src, dst, weight, time; endpoints reduced mod n) and checks it
// against the reference under the fuzzed option bits.
func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 1, 1}, uint8(1), uint8(0x1f))
	f.Add([]byte{0, 1, 5, 9, 1, 0, 2, 3, 0, 1, 1, 1, 2, 2, 0, 0}, uint8(3), uint8(0x0f))
	f.Add([]byte{4, 3, 1, 0, 3, 4, 0, 1, 4, 3, 2, 2, 3, 3, 7, 7}, uint8(5), uint8(0x1e))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2}, uint8(200), uint8(0x06))
	f.Fuzz(func(t *testing.T, data []byte, n uint8, bits uint8) {
		var edges []graph.Edge
		for ; n > 0 && len(data) >= 4; data = data[4:] {
			edges = append(edges, graph.Edge{
				Src: int32(data[0] % n), Dst: int32(data[1] % n),
				Weight: float32(data[2] % 8), Time: int64(data[3]%8) - 4,
			})
		}
		checkAgainstReference(t, int32(n), optsFromBits(bits), edges)
	})
}

// TestFromEdgesAllocBudget pins the builder's memory shape on an R-MAT s12
// edge list: a fixed handful of exact-size allocations (edge buffer, two
// cursor arrays, two sort buffers, the CSR arrays) and no more than three
// 24-byte edge records per stored arc in total.
func TestFromEdgesAllocBudget(t *testing.T) {
	edges := gen.RMATEdgeStream(12, 16<<12, gen.Graph500RMAT, 1)
	var g *graph.Graph
	allocs := testing.AllocsPerRun(3, func() { g = graph.FromEdges(1<<12, false, edges) })
	if allocs > 16 {
		t.Errorf("FromEdges made %.0f allocations, budget 16", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g = graph.FromEdges(1<<12, false, edges)
	runtime.ReadMemStats(&after)
	bytes := int64(after.TotalAlloc - before.TotalAlloc)
	if budget := 3 * 24 * g.NumEdges(); bytes > budget {
		t.Errorf("FromEdges allocated %d B for %d stored arcs, budget %d B", bytes, g.NumEdges(), budget)
	}
	t.Logf("%.0f allocations, %d B for %d stored arcs", allocs, bytes, g.NumEdges())
}
