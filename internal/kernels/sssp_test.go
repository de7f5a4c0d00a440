package kernels

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func weightedTestGraph() *graph.Graph {
	b := graph.NewBuilder(6).Weighted()
	edges := []struct {
		s, d int32
		w    float32
	}{
		{0, 1, 7}, {0, 2, 9}, {0, 5, 14}, {1, 2, 10}, {1, 3, 15},
		{2, 3, 11}, {2, 5, 2}, {3, 4, 6}, {4, 5, 9},
	}
	for _, e := range edges {
		b.AddWeighted(e.s, e.d, e.w)
		b.AddWeighted(e.d, e.s, e.w)
	}
	return b.Build()
}

func TestDijkstraClassic(t *testing.T) {
	g := weightedTestGraph()
	res := Dijkstra(g, 0)
	want := []float64{0, 7, 9, 20, 20, 11}
	for v, d := range want {
		if math.Abs(res.Dist[v]-d) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Dist[v], d)
		}
	}
	if !ValidateSSSP(g, res) {
		t.Fatal("SSSP result fails triangle inequality")
	}
}

func TestDijkstraUnweighted(t *testing.T) {
	g := gen.Ring(8)
	res := Dijkstra(g, 0)
	bfs := BFS(g, 0)
	for v := int32(0); v < 8; v++ {
		if int32(res.Dist[v]) != bfs.Depth[v] {
			t.Fatalf("unweighted Dijkstra disagrees with BFS at %d", v)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.FromEdges(3, true, [][2]int32{{0, 1}})
	res := Dijkstra(g, 0)
	if !math.IsInf(res.Dist[2], 1) {
		t.Fatal("unreachable vertex should have +Inf distance")
	}
	if res.Parent[2] != Unreached {
		t.Fatal("unreachable parent should be Unreached")
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	g := gen.RMATWeighted(9, 8, gen.Graph500RMAT, 4, false)
	d := Dijkstra(g, 0)
	bf, ok := BellmanFord(g, 0)
	if !ok {
		t.Fatal("unexpected negative cycle")
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if math.Abs(d.Dist[v]-bf.Dist[v]) > 1e-6 &&
			!(math.IsInf(d.Dist[v], 1) && math.IsInf(bf.Dist[v], 1)) {
			t.Fatalf("dist[%d]: dijkstra %v vs bellman-ford %v", v, d.Dist[v], bf.Dist[v])
		}
	}
}

func TestBellmanFordNegativeEdge(t *testing.T) {
	b := graph.NewBuilder(3).Weighted()
	b.AddWeighted(0, 1, 4)
	b.AddWeighted(0, 2, 5)
	b.AddWeighted(1, 2, -3)
	g := b.Build()
	res, ok := BellmanFord(g, 0)
	if !ok {
		t.Fatal("no negative cycle here")
	}
	if res.Dist[2] != 1 {
		t.Fatalf("dist[2] = %v, want 1", res.Dist[2])
	}
}

func TestBellmanFordNegativeCycle(t *testing.T) {
	b := graph.NewBuilder(2).Weighted()
	b.AddWeighted(0, 1, 1)
	b.AddWeighted(1, 0, -2)
	g := b.Build()
	if _, ok := BellmanFord(g, 0); ok {
		t.Fatal("negative cycle not detected")
	}
}

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	for _, delta := range []float64{0.05, 0.25, 1, 10} {
		g := gen.RMATWeighted(9, 8, gen.Graph500RMAT, 6, false)
		d := Dijkstra(g, 3)
		ds := DeltaStepping(g, 3, delta)
		for v := int32(0); v < g.NumVertices(); v++ {
			if math.Abs(d.Dist[v]-ds.Dist[v]) > 1e-6 &&
				!(math.IsInf(d.Dist[v], 1) && math.IsInf(ds.Dist[v], 1)) {
				t.Fatalf("delta=%v dist[%d]: %v vs %v", delta, v, d.Dist[v], ds.Dist[v])
			}
		}
	}
}

func TestDeltaSteppingDefaultsBadDelta(t *testing.T) {
	g := gen.Path(4)
	res := DeltaStepping(g, 0, -1) // must not hang or panic
	if res.Dist[3] != 3 {
		t.Fatalf("dist[3] = %v", res.Dist[3])
	}
}

func TestValidateSSSPCatchesCorruption(t *testing.T) {
	g := weightedTestGraph()
	res := Dijkstra(g, 0)
	res.Dist[3] = 100
	if ValidateSSSP(g, res) {
		t.Fatal("validator accepted corrupted distances")
	}
}

// boxedQueue is the container/heap priority queue Dijkstra was first written
// with; it stays here as the oracle for the unboxed one's pop order.
type boxedQueue []pqItem

func (q boxedQueue) Len() int           { return len(q) }
func (q boxedQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q boxedQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *boxedQueue) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *boxedQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func dijkstraBoxed(g *graph.Graph, src int32) *SSSPResult {
	n := g.NumVertices()
	res := &SSSPResult{Source: src, Dist: make([]float64, n), Parent: make([]int32, n)}
	for i := range res.Dist {
		res.Dist[i] = Inf
		res.Parent[i] = Unreached
	}
	res.Dist[src] = 0
	res.Parent[src] = src
	pq := &boxedQueue{{v: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if it.dist > res.Dist[it.v] {
			continue
		}
		ws := g.NeighborWeights(it.v)
		for i, w := range g.Neighbors(it.v) {
			ew := 1.0
			if ws != nil {
				ew = float64(ws[i])
			}
			if nd := it.dist + ew; nd < res.Dist[w] {
				res.Dist[w] = nd
				res.Parent[w] = it.v
				heap.Push(pq, pqItem{v: w, dist: nd})
			}
		}
	}
	return res
}

// TestDijkstraKeepsHeapTieOrder: among equal tentative distances the heap's
// sift sequence decides which vertex settles first and so which parent a
// vertex keeps; APSP and the benchmark's references are built on it, so the
// unboxed heap must reproduce it. Unweighted graphs are all ties.
func TestDijkstraKeepsHeapTieOrder(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RMAT(9, 8, gen.Graph500RMAT, 1, false),
		gen.ErdosRenyi(400, 3000, 2, true),
		gen.RMATWeighted(9, 8, gen.Graph500RMAT, 3, false),
		gen.Grid(12, 12),
	}
	for gi, g := range graphs {
		for _, src := range []int32{0, 1, g.NumVertices() / 2} {
			got, want := Dijkstra(g, src), dijkstraBoxed(g, src)
			if !slices.Equal(got.Dist, want.Dist) || !slices.Equal(got.Parent, want.Parent) {
				t.Fatalf("graph %d source %d: distances or parents differ from the container/heap Dijkstra", gi, src)
			}
		}
	}
	g := graphs[0]
	if avg := testing.AllocsPerRun(5, func() { Dijkstra(g, 0) }); avg > 20 {
		t.Errorf("Dijkstra allocated %.0f times, want the result and the queue's growth only", avg)
	}
}
