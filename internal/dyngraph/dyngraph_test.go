package dyngraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// applyGraph loads src one edit per edge through ApplyEdits, graphd's
// ingest path: the per-edge reference the bulk loader and the snapshot are
// checked against. An undirected edge is edited once, from its lower end.
func applyGraph(src *graph.Graph) *DynGraph {
	g := New(src.NumVertices(), src.Directed())
	var edits []Edit
	for v := int32(0); v < src.NumVertices(); v++ {
		ws, ts := src.NeighborWeights(v), src.NeighborTimes(v)
		for i, w := range src.Neighbors(v) {
			if !src.Directed() && w < v {
				continue
			}
			e := Edit{Src: v, Dst: w}
			if ws != nil {
				e.Weight = ws[i]
			}
			if ts != nil {
				e.Time = ts[i]
			}
			edits = append(edits, e)
		}
	}
	g.ApplyEdits(edits)
	return g
}

func TestInsertDeleteBasics(t *testing.T) {
	g := New(4, false)
	if !g.InsertEdge(0, 1, 1, 10) {
		t.Fatal("first insert should create")
	}
	if g.InsertEdge(0, 1, 2, 20) {
		t.Fatal("re-insert should update, not create")
	}
	if g.NumEdges() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("edges=%d degrees=%d,%d", g.NumEdges(), g.Degree(0), g.Degree(1))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected symmetry broken")
	}
	if !g.DeleteEdge(1, 0) {
		t.Fatal("delete failed")
	}
	if g.DeleteEdge(0, 1) {
		t.Fatal("double delete should fail")
	}
	if g.NumEdges() != 0 || g.Degree(0) != 0 {
		t.Fatal("delete did not clean up")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedDyn(t *testing.T) {
	g := New(3, true)
	g.InsertEdge(0, 1, 1, 0)
	if g.HasEdge(1, 0) {
		t.Fatal("directed graph added reverse arc")
	}
	if g.NumEdges() != 1 || g.NumArcs() != 1 {
		t.Fatal("arc counting broken")
	}
}

func TestBlockOverflow(t *testing.T) {
	// More neighbors than one block holds.
	g := NewWithBlockSize(100, false, 4)
	for w := int32(1); w < 50; w++ {
		g.InsertEdge(0, w, 1, int64(w))
	}
	if g.Degree(0) != 49 {
		t.Fatalf("degree = %d", g.Degree(0))
	}
	ns := g.Neighbors(0)
	if len(ns) != 49 {
		t.Fatalf("neighbors = %d", len(ns))
	}
	for i, w := range ns {
		if w != int32(i+1) {
			t.Fatalf("sorted neighbors wrong at %d: %d", i, w)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Delete across blocks.
	for w := int32(1); w < 50; w += 2 {
		if !g.DeleteEdge(0, w) {
			t.Fatalf("delete 0-%d failed", w)
		}
	}
	if g.Degree(0) != 24 {
		t.Fatalf("degree after deletes = %d", g.Degree(0))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfLoopSingleInsert(t *testing.T) {
	g := New(3, false)
	g.InsertEdge(1, 1, 1, 0)
	if g.Degree(1) != 1 {
		t.Fatalf("self loop degree = %d", g.Degree(1))
	}
	if !g.DeleteEdge(1, 1) || g.Degree(1) != 0 {
		t.Fatal("self loop delete broken")
	}
}

func TestCommonNeighborCount(t *testing.T) {
	g := New(6, false)
	for _, e := range [][2]int32{{0, 2}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {1, 5}} {
		g.InsertEdge(e[0], e[1], 1, 0)
	}
	if c := g.CommonNeighborCount(0, 1); c != 2 {
		t.Fatalf("common(0,1) = %d, want 2", c)
	}
	if c := g.CommonNeighborCount(2, 5); c != 0 {
		t.Fatalf("common(2,5) = %d", c)
	}
	// Isolated vertex.
	g2 := New(3, false)
	if c := g2.CommonNeighborCount(0, 1); c != 0 {
		t.Fatalf("isolated common = %d", c)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := gen.RMAT(8, 8, gen.Graph500RMAT, 3, false)
	dg := applyGraph(src)
	if dg.NumEdges() != src.NumUndirectedEdges() {
		t.Fatalf("loaded edges %d != %d", dg.NumEdges(), src.NumUndirectedEdges())
	}
	snap := dg.Snapshot()
	if snap.NumEdges() != src.NumEdges() {
		t.Fatalf("snapshot arcs %d != %d", snap.NumEdges(), src.NumEdges())
	}
	if snap.Directed() != src.Directed() {
		t.Fatal("directedness lost")
	}
	for v := int32(0); v < src.NumVertices(); v++ {
		if !reflect.DeepEqual(snap.Neighbors(v), src.Neighbors(v)) {
			t.Fatalf("adjacency differs at %d", v)
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotDirected(t *testing.T) {
	src := gen.RMAT(7, 4, gen.Graph500RMAT, 5, true)
	dg := applyGraph(src)
	snap := dg.Snapshot()
	if !snap.Directed() {
		t.Fatal("directed snapshot lost directedness")
	}
	if snap.NumEdges() != src.NumEdges() {
		t.Fatalf("arcs %d != %d", snap.NumEdges(), src.NumEdges())
	}
}

func TestRandomizedAgainstMapModel(t *testing.T) {
	// Property: dyngraph behaves exactly like a map-based adjacency model
	// under random insert/delete sequences, for several block sizes.
	for _, bs := range []int{1, 2, 8, 64} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := int32(2 + rng.Intn(20))
			g := NewWithBlockSize(n, false, bs)
			model := make(map[[2]int32]bool)
			for op := 0; op < 300; op++ {
				u, v := rng.Int31n(n), rng.Int31n(n)
				if u == v {
					continue
				}
				key := [2]int32{u, v}
				if u > v {
					key = [2]int32{v, u}
				}
				if rng.Intn(3) == 0 {
					want := model[key]
					if g.DeleteEdge(u, v) != want {
						return false
					}
					delete(model, key)
				} else {
					want := !model[key]
					if g.InsertEdge(u, v, 1, int64(op)) != want {
						return false
					}
					model[key] = true
				}
			}
			if int(g.NumEdges()) != len(model) {
				return false
			}
			for key := range model {
				if !g.HasEdge(key[0], key[1]) || !g.HasEdge(key[1], key[0]) {
					return false
				}
			}
			return g.Validate() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("block size %d: %v", bs, err)
		}
	}
}

func TestForEachNeighborPayload(t *testing.T) {
	g := New(3, true)
	g.InsertEdge(0, 1, 2.5, 77)
	var gotW float32
	var gotT int64
	g.ForEachNeighbor(0, func(w int32, weight float32, tm int64) {
		gotW, gotT = weight, tm
	})
	if gotW != 2.5 || gotT != 77 {
		t.Fatalf("payload = %v,%v", gotW, gotT)
	}
}

func TestFromCSRGraph(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(42))
		src := New(200, directed)
		for i := 0; i < 3000; i++ {
			v, w := int32(rng.Intn(200)), int32(rng.Intn(200))
			src.InsertEdge(v, w, rng.Float32(), int64(i))
		}
		snap := src.Snapshot()

		got := FromCSRGraph(snap)
		if err := got.Validate(); err != nil {
			t.Fatalf("directed=%v: Validate: %v", directed, err)
		}
		// The bulk load and the per-edge path must agree edge-for-edge,
		// including weights and timestamps. (Comparing against src directly
		// would be wrong: Snapshot drops self-loops at Build.)
		want := applyGraph(snap)
		if got.NumVertices() != want.NumVertices() || got.NumArcs() != want.NumArcs() || got.Directed() != directed {
			t.Fatalf("directed=%v: shape mismatch: %d/%d arcs", directed, got.NumArcs(), want.NumArcs())
		}
		for v := int32(0); v < src.NumVertices(); v++ {
			type payload struct {
				w float32
				t int64
			}
			wantN := map[int32]payload{}
			want.ForEachNeighbor(v, func(w int32, weight float32, tm int64) {
				wantN[w] = payload{weight, tm}
			})
			count := 0
			got.ForEachNeighbor(v, func(w int32, weight float32, tm int64) {
				count++
				p, ok := wantN[w]
				if !ok || p.w != weight || p.t != tm {
					t.Fatalf("directed=%v: vertex %d neighbor %d mismatch", directed, v, w)
				}
			})
			if count != len(wantN) {
				t.Fatalf("directed=%v: vertex %d has %d neighbors, want %d", directed, v, count, len(wantN))
			}
		}
	}
}

func TestFromCSRGraphEmpty(t *testing.T) {
	g := FromCSRGraph(New(0, true).Snapshot())
	if g.NumVertices() != 0 || g.NumArcs() != 0 {
		t.Fatalf("empty bulk load: %d vertices, %d arcs", g.NumVertices(), g.NumArcs())
	}
}
