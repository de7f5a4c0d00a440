package kernels

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// The differential suite runs every parallel kernel against its sequential
// reference on R-MAT and Erdős–Rényi graphs across multiple seeds, plus the
// degenerate shapes (empty, single vertex, disconnected), under each worker
// count in diffWorkers. The par scheduler guarantees byte-identical output
// for any worker count, so comparisons are exact unless noted.

var diffWorkers = []int{1, 2, 8}

type diffGraph struct {
	name string
	g    *graph.Graph
}

func diffGraphs() []diffGraph {
	out := []diffGraph{
		{"empty", graph.FromEdges(0, false, nil)},
		{"single", graph.FromEdges(1, false, nil)},
		// Two triangles plus three isolated vertices.
		{"disconnected", graph.FromEdges(9, false,
			[][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})},
	}
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out,
			diffGraph{fmt.Sprintf("rmat/seed=%d", seed),
				gen.RMAT(8, 8, gen.Graph500RMAT, seed, false)},
			diffGraph{fmt.Sprintf("er/seed=%d", seed),
				gen.ErdosRenyi(300, 1500, seed, false)})
	}
	return out
}

// withWorkers runs f with the par scheduler's default worker count pinned to
// w, restoring the previous setting afterwards.
func withWorkers(t *testing.T, w int, f func()) {
	t.Helper()
	prev := par.DefaultWorkers()
	par.SetDefaultWorkers(w)
	defer par.SetDefaultWorkers(prev)
	f()
}

// forEachDiffCase fans check out over every (graph, worker count) pair.
func forEachDiffCase(t *testing.T, check func(t *testing.T, g *graph.Graph)) {
	t.Helper()
	for _, dc := range diffGraphs() {
		for _, w := range diffWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", dc.name, w), func(t *testing.T) {
				withWorkers(t, w, func() { check(t, dc.g) })
			})
		}
	}
}

func TestDiffBFS(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		if g.NumVertices() == 0 {
			return
		}
		s := BFS(g, 0)
		p := BFSParallel(g, 0)
		if s.Visited != p.Visited {
			t.Fatalf("visited: %d != %d", s.Visited, p.Visited)
		}
		if !reflect.DeepEqual(s.Depth, p.Depth) {
			t.Fatal("depths differ from sequential BFS")
		}
		if !ValidateBFSTree(g, p) {
			t.Fatal("parallel BFS tree invalid")
		}
	})
}

func TestDiffWCC(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		s := WCC(g)
		p := WCCParallel(g)
		if s.NumComponents != p.NumComponents {
			t.Fatalf("components: %d != %d", s.NumComponents, p.NumComponents)
		}
		if !reflect.DeepEqual(s.Label, p.Label) {
			t.Fatal("canonical labels differ from sequential WCC")
		}
	})
}

func TestDiffTriangles(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		want := int64(len(TriangleList(g)))
		if got := GlobalTriangleCount(g); got != want {
			t.Fatalf("triangle count %d, enumeration lists %d", got, want)
		}
	})
}

func TestDiffPageRank(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		if g.NumVertices() == 0 {
			return
		}
		opt := DefaultPageRankOptions()
		pr, _ := PageRank(g, opt)
		push, _ := PageRankPush(g, opt)
		sum := 0.0
		for v := range pr {
			sum += pr[v]
			if math.Abs(pr[v]-push[v]) > 1e-3 {
				t.Fatalf("rank[%d]: pull %g vs push %g", v, pr[v], push[v])
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("ranks sum to %g", sum)
		}
	})
}

func TestDiffKCore(t *testing.T) {
	check := func(t *testing.T, g *graph.Graph) {
		s := KCore(g)
		p := KCoreParallel(g)
		if s.MaxCore != p.MaxCore {
			t.Fatalf("max core: %d != %d", s.MaxCore, p.MaxCore)
		}
		if !reflect.DeepEqual(s.Core, p.Core) {
			t.Fatal("core numbers differ from sequential peeling")
		}
		if !ValidateKCore(g, p) {
			t.Fatal("parallel core decomposition invalid")
		}
	}
	forEachDiffCase(t, check)
	// A dense random graph collapses in one cascade whose rounds hold more
	// than one chunk of arcs, so workers race on the degrees the peel keeps
	// in Core; the R-MAT peels through many small levels.
	for _, dc := range []diffGraph{
		{"er-dense", gen.ErdosRenyi(2000, 60000, 3, false)},
		{"rmat-s12", gen.RMAT(12, 16, gen.Graph500RMAT, 42, false)},
	} {
		for _, w := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", dc.name, w), func(t *testing.T) {
				withWorkers(t, w, func() { check(t, dc.g) })
			})
		}
	}
}

func TestDiffJaccard(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		for _, cfg := range []struct {
			minShared int32
			threshold float64
			maxPairs  int
		}{{2, 0, 0}, {2, 0.1, 50}, {1, 0, 25}} {
			s := JaccardAll(g, cfg.minShared, cfg.threshold, cfg.maxPairs)
			p := JaccardAllParallel(g, cfg.minShared, cfg.threshold, cfg.maxPairs)
			if !reflect.DeepEqual(s, p) {
				t.Fatalf("cfg %+v: parallel pair list differs", cfg)
			}
			if want := jaccardAllWedgeMap(g, cfg.minShared, cfg.threshold, cfg.maxPairs); !slices.Equal(s, want) {
				t.Fatalf("cfg %+v: pair list differs from the wedge-map oracle", cfg)
			}
		}
	})
}

// validateSSSPTree checks that every reached non-source vertex's parent is
// reached, adjacent, and exactly on a shortest path.
func validateSSSPTree(t *testing.T, g *graph.Graph, res *SSSPResult) {
	t.Helper()
	if res.Parent[res.Source] != res.Source {
		t.Fatal("source is not its own parent")
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if v == res.Source {
			continue
		}
		p := res.Parent[v]
		if math.IsInf(res.Dist[v], 1) {
			if p != Unreached {
				t.Fatalf("unreachable %d has parent %d", v, p)
			}
			continue
		}
		if p == Unreached {
			t.Fatalf("reached %d has no parent", v)
		}
		ns := g.Neighbors(p)
		ws := g.NeighborWeights(p)
		ok := false
		for i, w := range ns {
			ew := 1.0
			if ws != nil {
				ew = float64(ws[i])
			}
			if w == v && res.Dist[p]+ew == res.Dist[v] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("parent edge %d->%d is not on a shortest path", p, v)
		}
	}
}

// postPassParents is DeltaSteppingParallel's parent post-pass written
// sequentially: Parent[x] is the smallest v with dist[v]+w(v,x) == dist[x].
func postPassParents(g *graph.Graph, src int32, dist []float64) []int32 {
	parent := make([]int32, g.NumVertices())
	for i := range parent {
		parent[i] = Unreached
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		if math.IsInf(dist[v], 1) {
			continue
		}
		ws := g.NeighborWeights(v)
		for i, x := range g.Neighbors(v) {
			ew := 1.0
			if ws != nil {
				ew = float64(ws[i])
			}
			if x != src && parent[x] == Unreached && dist[v]+ew == dist[x] {
				parent[x] = v
			}
		}
	}
	parent[src] = src
	return parent
}

// checkSSSPExact holds a DeltaSteppingParallel result to Dijkstra's
// distances and to the post-pass parents over them, bit for bit.
func checkSSSPExact(t *testing.T, g *graph.Graph, p *SSSPResult) {
	t.Helper()
	d := Dijkstra(g, p.Source)
	if !reflect.DeepEqual(d.Dist, p.Dist) {
		t.Fatal("distances differ from Dijkstra")
	}
	if !slices.Equal(postPassParents(g, p.Source, d.Dist), p.Parent) {
		t.Fatal("parents differ from the sequential post-pass over Dijkstra's distances")
	}
	if !ValidateSSSP(g, p) {
		t.Fatal("parallel SSSP violates triangle inequality")
	}
	validateSSSPTree(t, g, p)
}

func TestDiffSSSP(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		if g.NumVertices() == 0 {
			return
		}
		s := DeltaStepping(g, 0, 1)
		p := DeltaSteppingParallel(g, 0, 1)
		if !reflect.DeepEqual(s.Dist, p.Dist) {
			t.Fatal("distances differ from sequential delta-stepping")
		}
		checkSSSPExact(t, g, p)
	})
}

func TestDiffSSSPWeighted(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, w := range diffWorkers {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, w), func(t *testing.T) {
				withWorkers(t, w, func() {
					g := gen.RMATWeighted(8, 8, gen.Graph500RMAT, seed, false)
					s := DeltaStepping(g, 0, 0.25)
					p := DeltaSteppingParallel(g, 0, 0.25)
					if !reflect.DeepEqual(s.Dist, p.Dist) {
						t.Fatal("weighted distances differ from sequential delta-stepping")
					}
					checkSSSPExact(t, g, p)
				})
			})
		}
	}
	// The benchmark's shape: bucket width 0.05 under weights up to 1 spreads
	// a run over a ring of twenty-odd buckets whose chains span many blocks
	// of the bucket store, and the heavy passes hold more than one chunk of
	// arcs, so relaxations run on several workers.
	g := gen.RMATWeighted(12, 16, gen.Graph500RMAT, 42, false)
	src, _ := graph.MaxDegreeVertex(g)
	for _, w := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("rmat-s12-delta0.05/workers=%d", w), func(t *testing.T) {
			withWorkers(t, w, func() { checkSSSPExact(t, g, DeltaSteppingParallel(g, src, 0.05)) })
		})
	}
}

func TestDiffSSSPDirected(t *testing.T) {
	for _, w := range diffWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			withWorkers(t, w, func() {
				g := gen.ErdosRenyi(300, 1500, 4, true)
				s := DeltaStepping(g, 0, 1)
				p := DeltaSteppingParallel(g, 0, 1)
				if !reflect.DeepEqual(s.Dist, p.Dist) {
					t.Fatal("directed distances differ from sequential delta-stepping")
				}
				checkSSSPExact(t, g, p)
			})
		})
	}
}

// naiveBrandes is an independent, textbook sequential Brandes used only as a
// differential oracle for the parallel implementation.
func naiveBrandes(g *graph.Graph) []float64 {
	n := g.NumVertices()
	bc := make([]float64, n)
	for s := int32(0); s < n; s++ {
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		for i := range dist {
			dist[i] = Unreached
		}
		sigma[s] = 1
		dist[s] = 0
		var order []int32
		frontier := []int32{s}
		for d := int32(0); len(frontier) > 0; d++ {
			var next []int32
			for _, v := range frontier {
				order = append(order, v)
				for _, w := range g.Neighbors(v) {
					if dist[w] == Unreached {
						dist[w] = d + 1
						next = append(next, w)
					}
					if dist[w] == d+1 {
						sigma[w] += sigma[v]
					}
				}
			}
			frontier = next
		}
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			for _, w := range g.Neighbors(v) {
				if dist[w] == dist[v]+1 && sigma[w] > 0 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			if v != s {
				bc[v] += delta[v]
			}
		}
	}
	if !g.Directed() {
		for i := range bc {
			bc[i] /= 2
		}
	}
	return bc
}

func TestDiffBetweenness(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		want := naiveBrandes(g)
		got := BetweennessCentrality(g)
		for v := range want {
			if math.Abs(want[v]-got[v]) > 1e-6*(1+math.Abs(want[v])) {
				t.Fatalf("bc[%d]: %g != %g", v, got[v], want[v])
			}
		}
	})
}

func TestDiffAPSP(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		if g.NumVertices() > 300 {
			return // keep the cubic oracle cheap
		}
		want := FloydWarshall(g)
		got := APSP(g)
		if !reflect.DeepEqual(want.Dist, got.Dist) {
			t.Fatal("APSP distance matrix differs from Floyd–Warshall")
		}
	})
}

func TestDiffLabelPropagationSync(t *testing.T) {
	forEachDiffCase(t, func(t *testing.T, g *graph.Graph) {
		res := LabelPropagationSync(g, 20)
		// Labels only travel along edges, so every community must sit inside
		// one weakly connected component, and the canonical label must be a
		// member of the community.
		wcc := WCC(g)
		for v := int32(0); v < g.NumVertices(); v++ {
			l := res.Label[v]
			if wcc.Label[l] != wcc.Label[v] {
				t.Fatalf("vertex %d labeled %d from another component", v, l)
			}
			if res.Label[l] != l {
				t.Fatalf("label %d is not canonical (its own label is %d)", l, res.Label[l])
			}
		}
	})
}
