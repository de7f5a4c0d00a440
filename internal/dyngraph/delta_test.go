package dyngraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// randomEditBatch produces a mixed insert/delete batch and returns it with
// the touched-vertex list an incremental consumer would derive from it.
func randomEditBatch(rng *rand.Rand, n int32, size int, deleteFrac float64) ([]Edit, []int32) {
	edits := make([]Edit, 0, size)
	mark := make([]bool, n)
	for i := 0; i < size; i++ {
		e := Edit{
			Src:    rng.Int31n(n),
			Dst:    rng.Int31n(n),
			Weight: rng.Float32()*4 + 0.5,
			Time:   rng.Int63n(1 << 20),
			Delete: rng.Float64() < deleteFrac,
		}
		edits = append(edits, e)
		mark[e.Src] = true
		mark[e.Dst] = true
	}
	var touched []int32
	for v := int32(0); v < n; v++ {
		if mark[v] {
			touched = append(touched, v)
		}
	}
	return edits, touched
}

func TestSnapshotDeltaMatchesFullSnapshot(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			const n = 128
			g := New(n, directed)
			prev := g.Snapshot()
			for step := 0; step < 12; step++ {
				deleteFrac := 0.0
				if step > 3 {
					deleteFrac = 0.3
				}
				edits, touched := randomEditBatch(rng, n, 60, deleteFrac)
				g.ApplyEdits(edits)
				got := g.SnapshotDelta(prev, touched)
				want := g.Snapshot()
				if err := got.Validate(); err != nil {
					t.Fatalf("directed=%v seed=%d step=%d: delta snapshot invalid: %v", directed, seed, step, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("directed=%v seed=%d step=%d: delta snapshot != full snapshot", directed, seed, step)
				}
				prev = got
			}
		}
	}
}

func TestSnapshotDeltaSelfLoopsExcluded(t *testing.T) {
	g := New(4, false)
	g.ApplyEdits([]Edit{{Src: 0, Dst: 1}, {Src: 2, Dst: 2}})
	prev := g.Snapshot()
	g.ApplyEdits([]Edit{{Src: 3, Dst: 3}, {Src: 1, Dst: 2}})
	got := g.SnapshotDelta(prev, []int32{3, 1, 2})
	if !reflect.DeepEqual(got, g.Snapshot()) {
		t.Fatal("delta snapshot with self-loop edits != full snapshot")
	}
	if got.HasEdge(2, 2) || got.HasEdge(3, 3) {
		t.Fatal("self-loop leaked into snapshot")
	}
}

func TestSnapshotDeltaFallsBackOnIncompatiblePrev(t *testing.T) {
	g := New(8, false)
	g.ApplyEdits([]Edit{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	want := g.Snapshot()

	if got := g.SnapshotDelta(nil, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("nil prev should fall back to full snapshot")
	}
	wrongN := New(4, false).Snapshot()
	if got := g.SnapshotDelta(wrongN, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("vertex-count mismatch should fall back to full snapshot")
	}
	unweighted := graph.FromEdges(8, false, [][2]int32{{0, 1}})
	if got := g.SnapshotDelta(unweighted, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("unweighted prev should fall back to full snapshot")
	}
}

// modelCSR is the trivially correct snapshot: a map from arc to payload,
// edited one arc at a time, then read out row by row in target order with
// self-loops left out.
type modelCSR map[[2]int32]edgeSlot

func (m modelCSR) apply(directed bool, edits []Edit) {
	for _, e := range edits {
		arcs := [][2]int32{{e.Src, e.Dst}}
		if !directed {
			arcs = append(arcs, [2]int32{e.Dst, e.Src})
		}
		for _, a := range arcs {
			if e.Delete {
				delete(m, a)
				continue
			}
			w := e.Weight
			if w == 0 {
				w = 1
			}
			m[a] = edgeSlot{dst: a[1], weight: w, time: e.Time}
		}
	}
}

func (m modelCSR) snapshot(t *testing.T, n int32, directed bool) *graph.Graph {
	t.Helper()
	offsets := make([]int64, n+1)
	targets, weights, times := []int32{}, []float32{}, []int64{}
	for v := int32(0); v < n; v++ {
		for w := int32(0); w < n; w++ {
			if s, ok := m[[2]int32{v, w}]; ok && v != w {
				targets = append(targets, w)
				weights = append(weights, s.weight)
				times = append(times, s.time)
			}
		}
		offsets[v+1] = int64(len(targets))
	}
	g, err := graph.FromCSRArrays(n, directed, offsets, targets, weights, times)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotMatchesModelAndDelta: after random edit scripts (inserts,
// property updates, deletes, delete-then-re-add, self-loops; directed and
// undirected) Snapshot() equals the adjacency-map model, and SnapshotDelta
// equals Snapshot() whether prev carries weight/time arrays (rows patched)
// or not (the fall-back).
func TestSnapshotMatchesModelAndDelta(t *testing.T) {
	const n = 24 // small, so repeated arcs and self-loops are common
	for _, directed := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := New(n, directed)
			model := modelCSR{}
			prev := g.Snapshot()
			for step := 0; step < 20; step++ {
				edits, touched := randomEditBatch(rng, n, 30, 0.35)
				for _, e := range edits[:5] { // delete-then-re-add inside one batch
					edits = append(edits, Edit{Src: e.Src, Dst: e.Dst, Delete: true},
						Edit{Src: e.Src, Dst: e.Dst, Weight: 7, Time: int64(step)})
				}
				g.ApplyEdits(edits)
				model.apply(directed, edits)
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}

				full := g.Snapshot()
				if err := full.Validate(); err != nil {
					t.Fatalf("directed=%v seed=%d step=%d: %v", directed, seed, step, err)
				}
				if want := model.snapshot(t, n, directed); !reflect.DeepEqual(full, want) {
					t.Fatalf("directed=%v seed=%d step=%d: Snapshot() != model", directed, seed, step)
				}
				if got := g.SnapshotDelta(prev, touched); !reflect.DeepEqual(got, full) {
					t.Fatalf("directed=%v seed=%d step=%d: SnapshotDelta(prev) != Snapshot()", directed, seed, step)
				}
				off, tgt, _, _ := prev.CSR()
				bare, err := graph.FromCSRArrays(n, directed, off, tgt, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := g.SnapshotDelta(bare, touched); !reflect.DeepEqual(got, full) {
					t.Fatalf("directed=%v seed=%d step=%d: SnapshotDelta(weightless prev) != Snapshot()", directed, seed, step)
				}
				prev = full
			}
		}
	}
}
