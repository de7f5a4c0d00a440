package kernels

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/scratch"
)

// jaccardAllWedgeMap is JaccardAll as it was first written: enumerate every
// wedge u–x–v from its centre x, count pairs in a flat hash map keyed on the
// packed pair, then score, sort and truncate. It stays here as the
// differential oracle for the row-wise kernel.
func jaccardAllWedgeMap(g *graph.Graph, minShared int32, threshold float64, maxPairs int) []JaccardPairScore {
	if minShared < 1 {
		minShared = 1
	}
	counts := scratch.NewMap64[int32](1 << 10)
	for x := int32(0); x < g.NumVertices(); x++ {
		ns := g.Neighbors(x)
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if ns[i] != ns[j] {
					counts.Add(pairKey(ns[i], ns[j]), 1)
				}
			}
		}
	}
	out := []JaccardPairScore{}
	counts.ForEach(func(key int64, c int32) {
		if c < minShared {
			return
		}
		u, v := unpairKey(key)
		if score := jaccardScore(c, g.Degree(u), g.Degree(v)); score >= threshold {
			out = append(out, JaccardPairScore{U: u, V: v, Inter: c, Score: score})
		}
	})
	slices.SortFunc(out, compareJaccardPairs)
	if maxPairs > 0 && len(out) > maxPairs {
		out = out[:maxPairs]
	}
	return out
}

// checkJaccardAgainstWedgeMap compares both entry points of the row-wise
// kernel with the oracle, element for element, under workers 1, 2, 4 and 8.
func checkJaccardAgainstWedgeMap(t *testing.T, g *graph.Graph, minShared int32, threshold float64, maxPairs int) {
	t.Helper()
	want := jaccardAllWedgeMap(g, minShared, threshold, maxPairs)
	if got := JaccardAll(g, minShared, threshold, maxPairs); !slices.Equal(got, want) {
		t.Fatalf("JaccardAll(minShared %d, threshold %g, maxPairs %d): %d pairs %v, oracle %d pairs %v",
			minShared, threshold, maxPairs, len(got), got, len(want), want)
	}
	for _, w := range []int{1, 2, 4, 8} {
		withWorkers(t, w, func() {
			if got := JaccardAllParallel(g, minShared, threshold, maxPairs); !slices.Equal(got, want) {
				t.Fatalf("JaccardAllParallel at %d workers (minShared %d, threshold %g, maxPairs %d): %d pairs, oracle %d",
					w, minShared, threshold, maxPairs, len(got), len(want))
			}
		})
	}
}

// randomMultigraph builds a small graph that keeps self-loops and parallel
// edges, so neighbor lists repeat vertices and contain their owner.
func randomMultigraph(rng *rand.Rand, n int32, m int, directed bool) *graph.Graph {
	b := graph.NewBuilder(n).AllowSelfLoops()
	if !directed {
		b.Undirected()
	}
	for i := 0; i < m; i++ {
		// A quarter of the edges land in a 3-vertex corner: repeats and loops.
		span := n
		if rng.Intn(4) == 0 {
			span = min(n, 3)
		}
		b.Add(rng.Int31n(span), rng.Int31n(span))
	}
	return b.Build()
}

func TestJaccardAllMatchesWedgeMap(t *testing.T) {
	// A score tie across the maxPairs cut: in K6 all 15 pairs score the
	// same, so which make the cut is decided by (U, V) alone.
	k6 := gen.CompleteGraph(6)
	for _, k := range []int{0, 1, 4, 15, 16} {
		checkJaccardAgainstWedgeMap(t, k6, 1, 0, k)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := int32(1 + rng.Intn(40))
		g := randomMultigraph(rng, n, rng.Intn(6*int(n)), trial%3 == 0)
		for _, cfg := range []struct {
			minShared int32
			threshold float64
			maxPairs  int
		}{{1, 0, 0}, {2, 0, 1}, {3, 0.05, 7}, {1, 0.3, 2}} {
			checkJaccardAgainstWedgeMap(t, g, cfg.minShared, cfg.threshold, cfg.maxPairs)
		}
	}
	// Enough candidates per worker to cross the trim point several times.
	checkJaccardAgainstWedgeMap(t, gen.RMAT(9, 8, gen.Graph500RMAT, 3, false), 1, 0, 5)
	checkJaccardAgainstWedgeMap(t, gen.RMAT(9, 8, gen.Graph500RMAT, 3, true), 2, 0.01, 40)
}

// FuzzJaccardAllMatchesWedgeMap: on any small graph — directed or not, with
// self-loops and parallel edges — and any filter, the row-wise kernel returns
// the wedge-map oracle's list, element for element.
func FuzzJaccardAllMatchesWedgeMap(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(0), false, uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(12), uint16(60), false, uint8(2), uint8(10), uint8(1))
	f.Add(int64(3), uint8(30), uint16(200), true, uint8(3), uint8(0), uint8(9))
	f.Add(int64(4), uint8(6), uint16(90), false, uint8(1), uint8(0), uint8(3)) // near-complete: ties at the cut
	f.Add(int64(5), uint8(50), uint16(400), true, uint8(1), uint8(40), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, m uint16, directed bool, minShared, thresholdPct, maxPairs uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := randomMultigraph(rng, 1+int32(n%64), int(m%512), directed)
		checkJaccardAgainstWedgeMap(t, g, 1+int32(minShared%3), float64(thresholdPct%101)/100, int(maxPairs))
	})
}

// TestJaccardAllResultIsTheCallers: the returned slice shares nothing with
// pooled scratch — a second call leaves the first result as it was.
func TestJaccardAllResultIsTheCallers(t *testing.T) {
	g := gen.RMAT(8, 8, gen.Graph500RMAT, 5, false)
	first := JaccardAllParallel(g, 1, 0, 50)
	keep := slices.Clone(first)
	for i := 0; i < 3; i++ {
		JaccardAllParallel(gen.RMAT(8, 8, gen.Graph500RMAT, int64(6+i), false), 1, 0, 50)
	}
	if !slices.Equal(first, keep) {
		t.Fatal("an earlier result changed under later calls")
	}
}
