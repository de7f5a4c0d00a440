package kernels

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBFSPath(t *testing.T) {
	g := gen.Path(5)
	res := BFS(g, 0)
	for v := int32(0); v < 5; v++ {
		if res.Depth[v] != v {
			t.Fatalf("depth[%d] = %d", v, res.Depth[v])
		}
	}
	if res.Visited != 5 {
		t.Fatalf("visited = %d", res.Visited)
	}
	if !ValidateBFSTree(g, res) {
		t.Fatal("BFS tree invalid")
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := graph.FromEdges(4, false, [][2]int32{{0, 1}})
	res := BFS(g, 0)
	if res.Depth[2] != Unreached || res.Parent[3] != Unreached {
		t.Fatal("unreachable vertices should stay Unreached")
	}
	if res.Visited != 2 {
		t.Fatalf("visited = %d", res.Visited)
	}
}

func TestBFSDirected(t *testing.T) {
	g := graph.FromEdges(3, true, [][2]int32{{0, 1}, {2, 0}})
	res := BFS(g, 0)
	if res.Depth[1] != 1 {
		t.Fatal("forward edge not followed")
	}
	if res.Depth[2] != Unreached {
		t.Fatal("reverse edge should not be followed in directed BFS")
	}
}

func TestBFSParallelMatchesSerial(t *testing.T) {
	for _, scale := range []int{6, 9, 11} {
		g := gen.RMAT(scale, 8, gen.Graph500RMAT, int64(scale), false)
		s := BFS(g, 1)
		p := BFSParallel(g, 1)
		if s.Visited != p.Visited {
			t.Fatalf("scale %d: visited %d != %d", scale, s.Visited, p.Visited)
		}
		for v := int32(0); v < g.NumVertices(); v++ {
			if s.Depth[v] != p.Depth[v] {
				t.Fatalf("scale %d: depth[%d] %d != %d", scale, v, s.Depth[v], p.Depth[v])
			}
		}
		if !ValidateBFSTree(g, p) {
			t.Fatalf("scale %d: parallel BFS tree invalid", scale)
		}
	}
}

func TestBFSParallelBottomUpTrigger(t *testing.T) {
	// A dense graph forces the bottom-up switch: complete graph.
	g := gen.CompleteGraph(200)
	res := BFSParallel(g, 5)
	for v := int32(0); v < 200; v++ {
		want := int32(1)
		if v == 5 {
			want = 0
		}
		if res.Depth[v] != want {
			t.Fatalf("depth[%d] = %d", v, res.Depth[v])
		}
	}
}

// TestValidateBFSTreeRejectsBadTree breaks one invariant per case in a BFS
// result on a triangle 0-1-2 with a tail 2-3-4, a leaf 5 on 0 and an
// isolated vertex 6. From 0: depths 0,1,1,2,3,1 and -1, parents
// 0,0,0,2,3,0 and -1.
func TestValidateBFSTreeRejectsBadTree(t *testing.T) {
	g := graph.FromEdges(7, false, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {0, 5}})
	if !ValidateBFSTree(g, BFS(g, 0)) {
		t.Fatal("validator rejected the true BFS tree")
	}
	cases := []struct {
		name    string
		corrupt func(r *BFSResult)
	}{
		{"source out of range", func(r *BFSResult) { r.Source = 7 }},
		{"source not its own parent", func(r *BFSResult) { r.Source = 1 }},
		{"source depth not zero", func(r *BFSResult) { r.Depth[0] = 1 }},
		{"parent not adjacent", func(r *BFSResult) { r.Parent[3] = 1 }},
		{"parent out of range", func(r *BFSResult) { r.Parent[3] = 7 }},
		{"depth not parent depth plus one", func(r *BFSResult) { r.Parent[2] = 1 }},
		{"tail depth not parent depth plus one", func(r *BFSResult) { r.Depth[4] = 1 }},
		{"unreached neighbour of a reached vertex", func(r *BFSResult) {
			r.Parent[5], r.Depth[5] = Unreached, Unreached
		}},
		{"neighbour two levels away", func(r *BFSResult) {
			// 0→1→2→3→4 is a consistent tree, but arc 0-2 spans two levels.
			r.Parent[2] = 1
			r.Depth[2], r.Depth[3], r.Depth[4] = 2, 3, 4
		}},
		{"parent unreached but depth set", func(r *BFSResult) { r.Depth[6] = 1 }},
	}
	for _, c := range cases {
		res := BFS(g, 0)
		c.corrupt(res)
		if ValidateBFSTree(g, res) {
			t.Errorf("%s: validator accepted the corrupted tree", c.name)
		}
	}
}

// TestValidateBFSTreeDirectedReverseArc: on a directed graph a tree edge
// may be stored only as v→p, as in a tree found over the transpose.
func TestValidateBFSTreeDirectedReverseArc(t *testing.T) {
	g := graph.FromEdges(4, true, [][2]int32{{1, 0}, {2, 1}})
	res := &BFSResult{
		Source: 0,
		Parent: []int32{0, 0, 1, Unreached},
		Depth:  []int32{0, 1, 2, Unreached},
	}
	if !ValidateBFSTree(g, res) {
		t.Fatal("validator rejected a directed tree whose edges are stored child to parent")
	}
	res.Parent[2] = 3
	if ValidateBFSTree(g, res) {
		t.Fatal("validator accepted an unreached parent")
	}
}

func TestBFSDepthProperty(t *testing.T) {
	// Property: on a ring of size n, depth of vertex k from 0 is
	// min(k, n-k).
	f := func(raw uint8) bool {
		n := int32(raw%60) + 3
		g := gen.Ring(n)
		res := BFS(g, 0)
		for k := int32(0); k < n; k++ {
			want := k
			if n-k < k {
				want = n - k
			}
			if res.Depth[k] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSParallelTreeValidUndirected(t *testing.T) {
	for _, w := range diffWorkers {
		withWorkers(t, w, func() {
			for seed := int64(1); seed <= 3; seed++ {
				g := gen.RMAT(9, 8, gen.Graph500RMAT, seed, false)
				res := BFSParallel(g, 0)
				if !ValidateBFSTree(g, res) {
					t.Fatalf("workers=%d seed=%d: undirected parallel BFS tree invalid", w, seed)
				}
			}
		})
	}
}

func TestBFSParallelTreeValidDirected(t *testing.T) {
	// Directed graphs must not take the bottom-up path (it scans out-arcs,
	// which only mirror frontier arcs on undirected graphs); the tree and
	// depths still have to validate and match serial BFS.
	for _, w := range diffWorkers {
		withWorkers(t, w, func() {
			for seed := int64(1); seed <= 3; seed++ {
				g := gen.RMAT(9, 8, gen.Graph500RMAT, seed, true)
				res := BFSParallel(g, 0)
				if !ValidateBFSTree(g, res) {
					t.Fatalf("workers=%d seed=%d: directed parallel BFS tree invalid", w, seed)
				}
				s := BFS(g, 0)
				if s.Visited != res.Visited {
					t.Fatalf("workers=%d seed=%d: visited %d != %d", w, seed, res.Visited, s.Visited)
				}
				for v := int32(0); v < g.NumVertices(); v++ {
					if s.Depth[v] != res.Depth[v] {
						t.Fatalf("workers=%d seed=%d: depth[%d] %d != %d",
							w, seed, v, res.Depth[v], s.Depth[v])
					}
				}
			}
		})
	}
}

func TestBFSParallelDirectedDense(t *testing.T) {
	// A dense directed graph would trip the (undirected-only) bottom-up
	// heuristic if it were not gated on directedness; depths must still be
	// exactly one hop.
	n := int32(150)
	b := graph.NewBuilder(n)
	for i := int32(1); i < n; i++ {
		b.Add(0, i) // hub out-arcs only
		for j := i + 1; j < n; j++ {
			b.Add(i, j) // forward tournament arcs keep density high
		}
	}
	g := b.Build()
	for _, w := range diffWorkers {
		withWorkers(t, w, func() {
			res := BFSParallel(g, 0)
			s := BFS(g, 0)
			if !reflect.DeepEqual(s.Depth, res.Depth) {
				t.Fatalf("workers=%d: directed dense depths diverge from serial BFS", w)
			}
			if !ValidateBFSTree(g, res) {
				t.Fatalf("workers=%d: directed dense BFS tree invalid", w)
			}
		})
	}
}

func TestKHopNeighborhood(t *testing.T) {
	g := gen.Path(10)
	hood := KHopNeighborhood(g, []int32{5}, 2)
	want := map[int32]bool{3: true, 4: true, 5: true, 6: true, 7: true}
	if len(hood) != len(want) {
		t.Fatalf("hood = %v", hood)
	}
	for _, v := range hood {
		if !want[v] {
			t.Fatalf("unexpected vertex %d", v)
		}
	}
	// Multi-seed, depth 0 returns exactly the distinct seeds.
	h0 := KHopNeighborhood(g, []int32{1, 1, 8}, 0)
	if len(h0) != 2 {
		t.Fatalf("depth-0 hood = %v", h0)
	}
}
