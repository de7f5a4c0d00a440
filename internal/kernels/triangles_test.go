package kernels

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteTriangles is the O(n^3) oracle.
func bruteTriangles(g *graph.Graph) int64 {
	n := g.NumVertices()
	var count int64
	for a := int32(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					count++
				}
			}
		}
	}
	return count
}

func TestTriangleCountKnown(t *testing.T) {
	if got := GlobalTriangleCount(gen.CompleteGraph(5)); got != 10 {
		t.Fatalf("K5 triangles = %d, want 10", got)
	}
	if got := GlobalTriangleCount(gen.Ring(6)); got != 0 {
		t.Fatalf("C6 triangles = %d, want 0", got)
	}
	if got := GlobalTriangleCount(gen.CompleteGraph(3)); got != 1 {
		t.Fatalf("K3 triangles = %d", got)
	}
	if got := GlobalTriangleCount(gen.Star(8)); got != 0 {
		t.Fatalf("star triangles = %d", got)
	}
}

func TestTriangleCountMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(3 + rng.Intn(40))
		g := gen.ErdosRenyi(n, rng.Intn(200), seed, false)
		return GlobalTriangleCount(g) == bruteTriangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleListMatchesCount(t *testing.T) {
	g := gen.RMAT(9, 8, gen.Graph500RMAT, 2, false)
	list := TriangleList(g)
	if int64(len(list)) != GlobalTriangleCount(g) {
		t.Fatalf("list %d != count %d", len(list), GlobalTriangleCount(g))
	}
	seen := make(map[Triangle]bool)
	for _, tri := range list {
		if !(tri.A < tri.B && tri.B < tri.C) {
			t.Fatalf("unordered triangle %v", tri)
		}
		if seen[tri] {
			t.Fatalf("duplicate triangle %v", tri)
		}
		seen[tri] = true
		if !g.HasEdge(tri.A, tri.B) || !g.HasEdge(tri.B, tri.C) || !g.HasEdge(tri.A, tri.C) {
			t.Fatalf("listed non-triangle %v", tri)
		}
	}
}

func TestPerVertexTriangles(t *testing.T) {
	g := gen.CompleteGraph(4) // each vertex in C(3,2)=3 triangles
	counts := PerVertexTriangles(g)
	for v, c := range counts {
		if c != 3 {
			t.Fatalf("vertex %d count %d", v, c)
		}
	}
	// Sum = 3 * #triangles.
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 3*4 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	cc := ClusteringCoefficients(gen.CompleteGraph(5))
	for _, c := range cc {
		if c != 1 {
			t.Fatalf("K5 clustering = %v", c)
		}
	}
	cc = ClusteringCoefficients(gen.Star(6))
	if cc[0] != 0 {
		t.Fatal("star center clustering should be 0")
	}
	// Degree-1 leaves get 0.
	if cc[1] != 0 {
		t.Fatal("leaf clustering should be 0")
	}
	// Triangle with a pendant: vertex 0 in triangle {0,1,2} plus pendant 3.
	g := graph.FromEdges(4, false, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	cc = ClusteringCoefficients(g)
	if cc[0] != 1.0/3.0 {
		t.Fatalf("cc[0] = %v, want 1/3", cc[0])
	}
	if cc[1] != 1 {
		t.Fatalf("cc[1] = %v, want 1", cc[1])
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	if c := GlobalClusteringCoefficient(gen.CompleteGraph(6)); c != 1 {
		t.Fatalf("K6 transitivity = %v", c)
	}
	if c := GlobalClusteringCoefficient(gen.Ring(8)); c != 0 {
		t.Fatalf("ring transitivity = %v", c)
	}
	if c := GlobalClusteringCoefficient(gen.Path(2)); c != 0 {
		t.Fatalf("tiny path transitivity = %v", c)
	}
}

// undirectedCSR builds an undirected graph through FromCSRArrays with every
// pair stored in both rows, keeping self-loops and repeated pairs, so rows
// are sorted but may hold a vertex's own id and runs of one target.
func undirectedCSR(t testing.TB, n int32, pairs [][2]int32) *graph.Graph {
	t.Helper()
	rows := make([][]int32, n)
	for _, p := range pairs {
		rows[p[0]] = append(rows[p[0]], p[1])
		if p[0] != p[1] {
			rows[p[1]] = append(rows[p[1]], p[0])
		}
	}
	offsets := make([]int64, n+1)
	var targets []int32
	for v, row := range rows {
		slices.Sort(row)
		targets = append(targets, row...)
		offsets[v+1] = int64(len(targets))
	}
	g, err := graph.FromCSRArrays(n, false, offsets, targets, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkTriangleCount compares GlobalTriangleCount at 1, 2 and 8 workers with
// the brute-force oracle and with the length of TriangleList.
func checkTriangleCount(t *testing.T, g *graph.Graph) {
	t.Helper()
	want := bruteTriangles(g)
	if listed := int64(len(TriangleList(g))); listed != want {
		t.Fatalf("TriangleList lists %d triangles, brute force counts %d", listed, want)
	}
	for _, w := range diffWorkers {
		withWorkers(t, w, func() {
			if got := GlobalTriangleCount(g); got != want {
				t.Fatalf("workers=%d: GlobalTriangleCount = %d, brute force counts %d", w, got, want)
			}
		})
	}
}

// TestTriangleCountParallelArcs: a triangle 0-1-2 whose arc 0-1 is stored
// twice, plus a self-loop on 2, is still one triangle.
func TestTriangleCountParallelArcs(t *testing.T) {
	checkTriangleCount(t, undirectedCSR(t, 3, [][2]int32{{0, 1}, {0, 1}, {1, 2}, {0, 2}, {2, 2}}))
}

// TestTriangleCountClearsMarks: the path 0-3-2-1 has no triangle, but
// F(0) = {3}, F(1) = {2} and F(2) = {3} in degree rank, so a mark of 3 left
// over from vertex 0 would be found in F(2) while vertex 1 is probed.
func TestTriangleCountClearsMarks(t *testing.T) {
	checkTriangleCount(t, undirectedCSR(t, 4, [][2]int32{{0, 3}, {3, 2}, {2, 1}}))
}

// FuzzTriangleCountMatchesBrute: on any small undirected CSR with self-loops
// and parallel arcs, the count at 1, 2 and 8 workers, the brute-force count
// and the length of the triangle list agree.
func FuzzTriangleCountMatchesBrute(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 1, 1, 2, 0, 2, 2, 2})
	f.Add(uint8(4), []byte{0, 3, 3, 2, 2, 1})
	f.Add(uint8(6), []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 3, 5, 5, 5})
	f.Add(uint8(24), []byte("a parallel arc counts once, and a self-loop never"))
	f.Fuzz(func(t *testing.T, size uint8, arcs []byte) {
		n := 1 + int32(size%32)
		var pairs [][2]int32
		for i := 0; i+1 < len(arcs) && len(pairs) < 256; i += 2 {
			pairs = append(pairs, [2]int32{int32(arcs[i]) % n, int32(arcs[i+1]) % n})
		}
		checkTriangleCount(t, undirectedCSR(t, n, pairs))
	})
}
