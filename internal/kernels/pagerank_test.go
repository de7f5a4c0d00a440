package kernels

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.RMAT(9, 8, gen.Graph500RMAT, 5, true)
	pr, iters := PageRank(g, DefaultPageRankOptions())
	if iters == 0 {
		t.Fatal("no iterations run")
	}
	sum := 0.0
	for _, r := range pr {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestPageRankUniformOnRing(t *testing.T) {
	g := gen.Ring(10)
	pr, _ := PageRank(g, DefaultPageRankOptions())
	for _, r := range pr {
		if math.Abs(r-0.1) > 1e-6 {
			t.Fatalf("ring rank %v != 0.1", r)
		}
	}
}

func TestPageRankStarCenterHighest(t *testing.T) {
	g := gen.Star(10)
	pr, _ := PageRank(g, DefaultPageRankOptions())
	for v := 1; v < 10; v++ {
		if pr[0] <= pr[v] {
			t.Fatal("star center should outrank leaves")
		}
	}
}

func TestPageRankDanglingMass(t *testing.T) {
	// Vertex 2 is a sink; total mass must still be 1.
	g := graph.FromEdges(3, true, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
	pr, _ := PageRank(g, DefaultPageRankOptions())
	sum := pr[0] + pr[1] + pr[2]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("sum = %v", sum)
	}
	if !(pr[2] > pr[1] && pr[1] > pr[0]) {
		t.Fatalf("expected rank ordering 2>1>0, got %v", pr)
	}
}

func TestPageRankPushMatchesPower(t *testing.T) {
	g := gen.RMAT(8, 8, gen.Graph500RMAT, 9, true)
	opt := DefaultPageRankOptions()
	power, _ := PageRank(g, opt)
	push, pushes := PageRankPush(g, opt)
	if pushes == 0 {
		t.Fatal("no pushes executed")
	}
	for v := range power {
		if math.Abs(power[v]-push[v]) > 5e-3 {
			t.Fatalf("rank[%d]: power %v vs push %v", v, power[v], push[v])
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	if pr, _ := PageRank(g, DefaultPageRankOptions()); pr != nil {
		t.Fatal("empty graph should return nil ranks")
	}
	if pr, _ := PageRankPush(g, DefaultPageRankOptions()); pr != nil {
		t.Fatal("empty graph should return nil ranks (push)")
	}
}

func TestPageRankMaxIters(t *testing.T) {
	g := gen.RMAT(8, 8, gen.Graph500RMAT, 9, true)
	opt := PageRankOptions{Damping: 0.85, Tolerance: 0, MaxIters: 3}
	_, iters := PageRank(g, opt)
	if iters != 3 {
		t.Fatalf("iters = %d, want capped at 3", iters)
	}
}

// pageRankThreePass is the PageRank loop the fused kernel replaced, kept as
// its oracle: per iteration a dangling-mass Reduce, a pull For dividing by
// an outDeg array, and an L1-delta Reduce, with a second rank vector.
func pageRankThreePass(g *graph.Graph, opt PageRankOptions) ([]float64, int) {
	n := g.NumVertices()
	if n == 0 {
		return nil, 0
	}
	gt := g.Transpose()
	rank := make([]float64, n)
	next := make([]float64, n)
	invN := 1.0 / float64(n)
	for i := range rank {
		rank[i] = invN
	}
	outDeg := make([]float64, n)
	for v := int32(0); v < n; v++ {
		outDeg[v] = float64(g.Degree(v))
	}
	add := func(a, b float64) float64 { return a + b }
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		dangling := par.Reduce(int(n), par.Opt{Name: "test.pagerank.dangling"},
			func(lo, hi int) float64 {
				s := 0.0
				for v := lo; v < hi; v++ {
					if outDeg[v] == 0 {
						s += rank[v]
					}
				}
				return s
			}, add)
		base := (1-opt.Damping)*invN + opt.Damping*dangling*invN
		par.For(int(n), par.Opt{Name: "test.pagerank.pull"}, func(lo, hi int) {
			for v := int32(lo); v < int32(hi); v++ {
				sum := 0.0
				for _, u := range gt.Neighbors(v) {
					sum += rank[u] / outDeg[u]
				}
				next[v] = base + opt.Damping*sum
			}
		})
		delta := par.Reduce(int(n), par.Opt{Name: "test.pagerank.delta"},
			func(lo, hi int) float64 {
				s := 0.0
				for v := lo; v < hi; v++ {
					s += math.Abs(next[v] - rank[v])
				}
				return s
			}, add)
		rank, next = next, rank
		if delta < opt.Tolerance {
			iters++
			break
		}
	}
	return rank, iters
}

// fusedOracleGraphs are the shapes the fused PageRank and in-place WCC are
// held to their replaced forms on: power-law undirected and directed, a
// graph whose sinks and isolated vertices carry dangling mass and singleton
// components, and the empty and one-vertex graphs.
func fusedOracleGraphs() []diffGraph {
	return []diffGraph{
		{"rmat-s12", gen.RMAT(12, 16, gen.Graph500RMAT, 42, false)},
		{"rmat-s10-directed", gen.RMAT(10, 8, gen.Graph500RMAT, 5, true)},
		{"dangling-isolated", graph.FromEdges(8, true,
			[][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 2}, {4, 5}, {5, 4}})},
		{"n=0", graph.FromEdges(0, false, nil)},
		{"n=1", graph.FromEdges(1, false, nil)},
	}
}

// TestDiffPageRankMatchesThreePass: the fused one-pass iteration returns the
// three-pass loop's ranks bit for bit and the same iteration count, at
// every worker count, under the default options and a capped run.
func TestDiffPageRankMatchesThreePass(t *testing.T) {
	opts := []PageRankOptions{DefaultPageRankOptions(), {Damping: 0.85, Tolerance: 0, MaxIters: 3}}
	for _, dc := range fusedOracleGraphs() {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", dc.name, w), func(t *testing.T) {
				withWorkers(t, w, func() {
					for _, opt := range opts {
						want, wantIters := pageRankThreePass(dc.g, opt)
						got, iters := PageRank(dc.g, opt)
						if iters != wantIters {
							t.Fatalf("%+v: %d iterations, three-pass loop %d", opt, iters, wantIters)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%+v: ranks differ from the three-pass loop", opt)
						}
					}
				})
			})
		}
	}
}
