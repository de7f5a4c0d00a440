package kernels

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestAPSPMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(25))
		g := gen.RMATWeighted(5, 4, gen.Graph500RMAT, seed, true)
		_ = n
		a := APSP(g)
		b := FloydWarshall(g)
		for u := int32(0); u < g.NumVertices(); u++ {
			for v := int32(0); v < g.NumVertices(); v++ {
				da, db := a.At(u, v), b.At(u, v)
				if math.IsInf(da, 1) != math.IsInf(db, 1) {
					return false
				}
				if !math.IsInf(da, 1) && math.Abs(da-db) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDiameter(t *testing.T) {
	g := gen.Path(6)
	r := APSP(g)
	d, u, v := Diameter(r)
	if d != 5 {
		t.Fatalf("path diameter = %v", d)
	}
	if (u != 0 || v != 5) && (u != 5 || v != 0) {
		t.Fatalf("diameter pair = %d,%d", u, v)
	}
	// Ring diameter = n/2.
	r2 := APSP(gen.Ring(8))
	if d2, _, _ := Diameter(r2); d2 != 4 {
		t.Fatalf("ring diameter = %v", d2)
	}
}

func TestBetweennessPath(t *testing.T) {
	// On a path 0-1-2-3-4 the middle vertex lies on the most pairs.
	g := gen.Path(5)
	bc := BetweennessCentrality(g)
	// Exact undirected BC for path: v=2 is on (0,3),(0,4),(1,3),(1,4),(0,2..) —
	// pairs strictly through 2: (0,3),(0,4),(1,3),(1,4) = 4.
	if math.Abs(bc[2]-4) > 1e-9 {
		t.Fatalf("bc[2] = %v, want 4", bc[2])
	}
	if bc[0] != 0 || bc[4] != 0 {
		t.Fatal("endpoints should have zero centrality")
	}
	if math.Abs(bc[1]-3) > 1e-9 { // (0,2),(0,3),(0,4)
		t.Fatalf("bc[1] = %v, want 3", bc[1])
	}
}

func TestBetweennessStar(t *testing.T) {
	g := gen.Star(6)
	bc := BetweennessCentrality(g)
	// Center is on all C(5,2)=10 leaf pairs.
	if math.Abs(bc[0]-10) > 1e-9 {
		t.Fatalf("star center bc = %v", bc[0])
	}
	for v := 1; v < 6; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf bc = %v", bc[v])
		}
	}
}

func TestApproxBetweennessConverges(t *testing.T) {
	g := gen.RMAT(8, 8, gen.Graph500RMAT, 21, false)
	exact := BetweennessCentrality(g)
	approx := ApproxBetweenness(g, int(g.NumVertices()), 1) // k=n → exact
	for v := range exact {
		if math.Abs(exact[v]-approx[v]) > 1e-6 {
			t.Fatalf("full-sample approx differs at %d", v)
		}
	}
	// Sampled estimate should correlate: top exact vertex in top decile.
	sampled := ApproxBetweenness(g, 64, 7)
	topExact := TopKByScore(exact, 1)[0].V
	rank := 0
	for v := range sampled {
		if sampled[v] > sampled[topExact] {
			rank++
		}
	}
	if rank > int(g.NumVertices())/10 {
		t.Fatalf("sampled BC ranks true top vertex at %d", rank)
	}
}

func TestMISGreedyAndLuby(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Ring(10), gen.CompleteGraph(6), gen.Star(8),
		gen.RMAT(8, 8, gen.Graph500RMAT, 31, false),
	} {
		greedy := MISGreedy(g)
		if !ValidateMIS(g, greedy) {
			t.Fatal("greedy MIS invalid")
		}
		luby := MISLuby(g, 5)
		if !ValidateMIS(g, luby) {
			t.Fatal("Luby MIS invalid")
		}
	}
	if got := len(MISGreedy(gen.CompleteGraph(6))); got != 1 {
		t.Fatalf("K6 MIS size = %d", got)
	}
	// Greedy takes the star center first (vertex 0), blocking every leaf —
	// a maximal set of size 1.
	if got := len(MISGreedy(gen.Star(8))); got != 1 {
		t.Fatalf("star greedy MIS size = %d (center-first gives 1)", got)
	}
}

func TestValidateMISRejects(t *testing.T) {
	g := gen.Path(4)
	if ValidateMIS(g, []int32{0, 1}) {
		t.Fatal("adjacent pair accepted")
	}
	if ValidateMIS(g, []int32{0}) {
		t.Fatal("non-maximal set accepted")
	}
	if !ValidateMIS(g, []int32{0, 2}) {
		t.Fatal("{0,2} is a valid MIS of the 4-path (3 is covered by 2)")
	}
}

func TestTopKByScore(t *testing.T) {
	scores := []float64{5, 1, 9, 7, 3}
	top := TopKByScore(scores, 3)
	if len(top) != 3 || top[0].V != 2 || top[1].V != 3 || top[2].V != 0 {
		t.Fatalf("top = %v", top)
	}
	if TopKByScore(scores, 0) != nil {
		t.Fatal("k=0 should be nil")
	}
	if got := TopKByScore(scores, 10); len(got) != 5 {
		t.Fatalf("k>n gives %d", len(got))
	}
}

// boxedMinHeap is the container/heap min-heap TopKByScore was first written
// with; it stays here as the oracle for the unboxed one's tie order.
type boxedMinHeap []ScoredVertex

func (h boxedMinHeap) Len() int           { return len(h) }
func (h boxedMinHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h boxedMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedMinHeap) Push(x any)        { *h = append(*h, x.(ScoredVertex)) }
func (h *boxedMinHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func topKBoxed(scores []float64, k int) []ScoredVertex {
	h := &boxedMinHeap{}
	for v, s := range scores {
		if h.Len() < k {
			heap.Push(h, ScoredVertex{V: int32(v), Score: s})
		} else if s > (*h)[0].Score {
			(*h)[0] = ScoredVertex{V: int32(v), Score: s}
			heap.Fix(h, 0)
		}
	}
	out := make([]ScoredVertex, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(ScoredVertex)
	}
	return out
}

// TestTopKByScoreKeepsHeapTieOrder: which of several equal scores makes the
// cut, and in what order, depends on the heap's sift sequence; sharded and
// standalone answers are compared byte for byte, so it may not change.
func TestTopKByScoreKeepsHeapTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		scores := make([]float64, rng.Intn(300))
		for i := range scores {
			scores[i] = float64(rng.Intn(1 + trial%12)) // few distinct values: mostly ties
		}
		for _, k := range []int{1, 2, 7, 64, len(scores) + 3} {
			if got, want := TopKByScore(scores, k), topKBoxed(scores, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d k=%d over %d scores: got %v, want %v", trial, k, len(scores), got, want)
			}
		}
	}
	if avg := testing.AllocsPerRun(20, func() { TopKByScore([]float64{3, 1, 2, 5, 4, 9, 7}, 5) }); avg > 1 {
		t.Errorf("TopKByScore allocated %.0f times, want only the result slice", avg)
	}
}

func TestTopKByDegree(t *testing.T) {
	g := gen.Star(10)
	top := TopKByDegree(g, 2)
	if top[0].V != 0 || top[0].Score != 9 {
		t.Fatalf("top = %v", top)
	}
}

func TestLargestComponent(t *testing.T) {
	g := graph.FromEdges(7, false, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}})
	lc := LargestComponent(g)
	if len(lc) != 4 {
		t.Fatalf("largest component size = %d", len(lc))
	}
	for _, v := range lc {
		if v < 3 {
			t.Fatal("wrong component chosen")
		}
	}
}
