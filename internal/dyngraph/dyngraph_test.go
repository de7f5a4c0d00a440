package dyngraph

import (
	"math/rand"
	"reflect"
	"strings"
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

// edit applies one edit.
func edit(g *DynGraph, e Edit) BatchResult { return g.ApplyEdits([]Edit{e}) }

func TestInsertDeleteBasics(t *testing.T) {
	g := New(4, false)
	if edit(g, Edit{Src: 0, Dst: 1, Time: 10}).Inserted != 1 {
		t.Fatal("first insert should create")
	}
	if edit(g, Edit{Src: 0, Dst: 1, Weight: 2, Time: 20}).Updated != 1 {
		t.Fatal("re-insert should update, not create")
	}
	if g.NumEdges() != 1 || g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("edges=%d degrees=%d,%d", g.NumEdges(), g.Degree(0), g.Degree(1))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected symmetry broken")
	}
	if edit(g, Edit{Src: 1, Dst: 0, Delete: true}).Deleted != 1 {
		t.Fatal("delete failed")
	}
	if edit(g, Edit{Src: 0, Dst: 1, Delete: true}).NoOps != 1 {
		t.Fatal("double delete should be a no-op")
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
	edit(g, Edit{Src: 0, Dst: 1})
	if g.HasEdge(1, 0) {
		t.Fatal("directed graph added reverse arc")
	}
	if g.NumEdges() != 1 || g.NumArcs() != 1 {
		t.Fatal("arc counting broken")
	}
}

// TestSortedRowOrder: a row filled and thinned in scrambled order reads
// back ascending, with each arc's payload, and Validate refuses a row that
// is out of order or holds a duplicate.
func TestSortedRowOrder(t *testing.T) {
	g := New(100, false)
	rng := rand.New(rand.NewSource(7))
	for _, w := range rng.Perm(49) {
		edit(g, Edit{Src: 0, Dst: int32(w + 1), Time: int64(w + 1)})
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
	for _, i := range rng.Perm(25) {
		if w := int32(2*i + 1); edit(g, Edit{Src: 0, Dst: w, Delete: true}).Deleted != 1 {
			t.Fatalf("delete 0-%d failed", w)
		}
	}
	if g.Degree(0) != 24 {
		t.Fatalf("degree after deletes = %d", g.Degree(0))
	}
	want := int32(2)
	g.ForEachNeighbor(0, func(w int32, _ float32, tm int64) {
		if w != want || tm != int64(w) {
			t.Fatalf("after deletes: neighbor %d at time %d, want %d at time %d", w, tm, want, want)
		}
		want += 2
	})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	row := g.rows[0]
	row[0], row[1] = row[1], row[0]
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("Validate on a swapped row = %v, want an ascending-order error", err)
	}
	row[0], row[1] = row[1], row[0]
	row[1].dst = row[0].dst
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("Validate on a row with a duplicate = %v, want an ascending-order error", err)
	}
}

// TestNoSelfLoops: neither way into a DynGraph stores a self-loop — an
// edit (v,v) is a no-op, and a bulk-loaded CSR row that holds v loses that
// arc — so degrees and edge counts agree with every snapshot taken.
func TestNoSelfLoops(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := New(3, directed)
		if res := g.ApplyEdits([]Edit{{Src: 0, Dst: 1}, {Src: 1, Dst: 1}, {Src: 1, Dst: 1, Delete: true}}); res.NoOps != 2 {
			t.Fatalf("directed=%v: self-loop edits = %+v, want 2 no-ops", directed, res)
		}
		if g.HasEdge(1, 1) || g.Degree(1) != g.Snapshot().Degree(1) {
			t.Fatalf("directed=%v: ApplyEdits stored a self-loop", directed)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("directed=%v: %v", directed, err)
		}
	}
	// Vertex 1's row is {0, 1, 2}: an arc to itself between two others.
	csr, err := graph.FromCSRArrays(3, false, []int64{0, 1, 4, 5}, []int32{1, 0, 1, 2, 1},
		[]float32{1, 2, 3, 4, 5}, []int64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	g := FromCSRGraph(csr)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 1) || g.Degree(1) != 2 || g.NumArcs() != 4 {
		t.Fatalf("FromCSRGraph kept the self-loop: degree(1) = %d, %d arcs, want 2 and 4", g.Degree(1), g.NumArcs())
	}
	var payload []float32
	g.ForEachNeighbor(1, func(_ int32, weight float32, _ int64) { payload = append(payload, weight) })
	if !reflect.DeepEqual(payload, []float32{2, 4}) {
		t.Fatalf("vertex 1's arcs carry weights %v, want [2 4]", payload)
	}
}

func TestCommonNeighborCount(t *testing.T) {
	g := New(6, false)
	for _, e := range [][2]int32{{0, 2}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {1, 5}} {
		edit(g, Edit{Src: e[0], Dst: e[1]})
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
	// under random insert/delete sequences. Vertex 0 is a hub: it is an
	// endpoint of most edits, so its row passes 1,000 arcs while inserts
	// and deletes land at random places in it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(3000 + rng.Intn(500))
		g := New(n, false)
		model := make(map[[2]int32]bool)
		hubPeak := int32(0)
		for op := 0; op < 6000; op++ {
			u, v := rng.Int31n(n), rng.Int31n(n)
			if rng.Intn(4) != 0 {
				u = 0
			}
			if u == v {
				continue
			}
			key := [2]int32{u, v}
			if u > v {
				key = [2]int32{v, u}
			}
			if rng.Intn(4) == 0 {
				want := model[key]
				if (edit(g, Edit{Src: u, Dst: v, Delete: true}).Deleted == 1) != want {
					return false
				}
				delete(model, key)
			} else {
				want := !model[key]
				if (edit(g, Edit{Src: u, Dst: v, Time: int64(op)}).Inserted == 1) != want {
					return false
				}
				model[key] = true
			}
			hubPeak = max(hubPeak, g.Degree(0))
		}
		if hubPeak <= 1000 {
			t.Errorf("seed %d: hub row peaked at %d arcs, want more than 1000", seed, hubPeak)
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
		t.Fatal(err)
	}
}

func TestForEachNeighborPayload(t *testing.T) {
	g := New(3, true)
	edit(g, Edit{Src: 0, Dst: 1, Weight: 2.5, Time: 77})
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
			edit(src, Edit{Src: v, Dst: w, Weight: rng.Float32(), Time: int64(i)})
		}
		snap := src.Snapshot()

		got := FromCSRGraph(snap)
		if err := got.Validate(); err != nil {
			t.Fatalf("directed=%v: Validate: %v", directed, err)
		}
		// The bulk load and the per-edge path must agree edge-for-edge,
		// including weights and timestamps.
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
