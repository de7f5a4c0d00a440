package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestIntersectCount(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2},
		{[]int32{}, []int32{1}, 0},
		{[]int32{1, 5, 9}, []int32{2, 6, 10}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
	}
	for _, c := range cases {
		if got := intersectCount(c.a, c.b); got != c.want {
			t.Fatalf("intersect(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardPair(t *testing.T) {
	// N(0)={1,2,3}, N(4)={2,3,5}: inter 2, union 4 -> 0.5.
	g := graph.FromEdges(6, false, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {4, 2}, {4, 3}, {4, 5},
	})
	s := JaccardPair(g, 0, 4)
	if s.Inter != 2 || math.Abs(s.Score-0.5) > 1e-12 {
		t.Fatalf("score = %+v", s)
	}
	// Disjoint neighborhoods.
	s2 := JaccardPair(g, 1, 5)
	if s2.Score != 0 {
		t.Fatalf("disjoint score = %v", s2.Score)
	}
}

func TestJaccardAllThresholds(t *testing.T) {
	g := gen.CompleteGraph(5)
	// In K5, any pair shares the other 3 vertices; each is the other's
	// neighbor too. inter=3, union = 4+4-3=5 -> 0.6.
	pairs := JaccardAll(g, 2, 0, 0)
	if len(pairs) != 10 {
		t.Fatalf("K5 pairs = %d, want 10", len(pairs))
	}
	for _, p := range pairs {
		if math.Abs(p.Score-0.6) > 1e-12 || p.Inter != 3 {
			t.Fatalf("K5 pair = %+v", p)
		}
	}
	// Threshold filters.
	if got := JaccardAll(g, 2, 0.7, 0); len(got) != 0 {
		t.Fatalf("threshold leak: %v", got)
	}
	// minShared filters.
	if got := JaccardAll(g, 4, 0, 0); len(got) != 0 {
		t.Fatalf("minShared leak: %v", got)
	}
	// Truncation.
	if got := JaccardAll(g, 1, 0, 3); len(got) != 3 {
		t.Fatalf("maxPairs = %d", len(got))
	}
}

func TestJaccardAllMatchesPairwise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(4 + rng.Intn(30))
		g := gen.ErdosRenyi(n, rng.Intn(120), seed, false)
		all := JaccardAll(g, 1, 0, 0)
		got := make(map[int64]float64, len(all))
		for _, p := range all {
			got[pairKey(p.U, p.V)] = p.Score
		}
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				want := JaccardPair(g, u, v)
				if want.Inter == 0 {
					if _, ok := got[pairKey(u, v)]; ok {
						return false
					}
					continue
				}
				if math.Abs(got[pairKey(u, v)]-want.Score) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestJaccardFromVertex(t *testing.T) {
	g := graph.FromEdges(6, false, [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {4, 2}, {4, 3}, {4, 5},
	})
	res := JaccardFromVertex(g, 0, 0)
	// Partners of 0 through 2-hop: 4 (via 2,3), plus 1/2/3 relationships.
	found := false
	for _, p := range res {
		if p.V == 4 {
			found = true
			if math.Abs(p.Score-0.5) > 1e-12 {
				t.Fatalf("score(0,4) = %v", p.Score)
			}
		}
		if p.V == 0 {
			t.Fatal("self pair returned")
		}
	}
	if !found {
		t.Fatal("expected partner 4")
	}
	// Sorted descending.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
}

func TestJaccardFromVertexMatchesAll(t *testing.T) {
	g := gen.RMAT(7, 8, gen.Graph500RMAT, 12, false)
	all := JaccardAll(g, 1, 0, 0)
	want := make(map[int64]float64)
	for _, p := range all {
		want[pairKey(p.U, p.V)] = p.Score
	}
	for u := int32(0); u < 20; u++ {
		for _, p := range JaccardFromVertex(g, u, 0) {
			if math.Abs(want[pairKey(p.U, p.V)]-p.Score) > 1e-12 {
				t.Fatalf("query mismatch for (%d,%d)", p.U, p.V)
			}
		}
	}
}

func TestMaxJaccardFor(t *testing.T) {
	g := graph.FromEdges(4, false, [][2]int32{{0, 1}, {0, 2}, {3, 1}, {3, 2}})
	best, ok := MaxJaccardFor(g, 0)
	if !ok || best.V != 3 || best.Score != 1 {
		t.Fatalf("best = %+v ok=%v", best, ok)
	}
	// Vertex with no 2-hop partners.
	g2 := graph.FromEdges(3, false, [][2]int32{{0, 1}})
	if _, ok := MaxJaccardFor(g2, 2); ok {
		t.Fatal("isolated vertex should have no partner")
	}
}

func TestPairKeyRoundTrip(t *testing.T) {
	f := func(a, b int32) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		u, v := unpairKey(pairKey(a, b))
		if a <= b {
			return u == a && v == b
		}
		return u == b && v == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
