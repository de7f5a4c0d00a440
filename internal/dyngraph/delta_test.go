package dyngraph

import (
	"fmt"
	"math/rand"
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
				if !got.Equal(want) {
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
	if !got.Equal(g.Snapshot()) {
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

	if got := g.SnapshotDelta(nil, nil); !got.Equal(want) {
		t.Fatal("nil prev should fall back to full snapshot")
	}
	wrongN := New(4, false).Snapshot()
	if got := g.SnapshotDelta(wrongN, nil); !got.Equal(want) {
		t.Fatal("vertex-count mismatch should fall back to full snapshot")
	}
	unweighted := graph.FromEdges(8, false, [][2]int32{{0, 1}})
	if got := g.SnapshotDelta(unweighted, nil); !got.Equal(want) {
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

// inPlace reports whether next was patched into prev's arena rather than
// emitted into a fresh one: a non-empty row untouched between the two then
// sits in the very same memory. ok is false when no such row exists.
func inPlace(prev, next *graph.Graph, touched []int32) (shared, ok bool) {
	ti := 0
	for v := int32(0); v < prev.NumVertices(); v++ {
		if ti < len(touched) && touched[ti] == v {
			ti++
			continue
		}
		if a, b := prev.Neighbors(v), next.Neighbors(v); len(a) > 0 {
			return &a[0] == &b[0], true
		}
	}
	return false, false
}

// TestSnapshotMatchesModelAndDelta: along random edit scripts (inserts,
// property updates, deletes, delete-then-re-add, self-loops; directed and
// undirected) Snapshot() equals the adjacency-map model, and a chain of
// snapshots each patched from the one before — in place while the shared
// arena has room, into a fresh arena when it does not — equals it too at
// every link, whether the first prev carries weight/time arrays or not (the
// fall-back). A prev without them also falls back at every later link.
func TestSnapshotMatchesModelAndDelta(t *testing.T) {
	const n, steps = 24, 96 // small, so repeated arcs and self-loops are common
	for _, directed := range []bool{false, true} {
		for _, bareFirst := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g := New(n, directed)
				model := modelCSR{}
				warm, _ := randomEditBatch(rng, n, 120, 0)
				g.ApplyEdits(warm)
				model.apply(directed, warm)
				bare := func(src *graph.Graph) *graph.Graph {
					off, tgt, _, _ := src.CSR()
					b, err := graph.FromCSRArrays(n, directed, off, tgt, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					return b
				}
				chain := g.Snapshot()
				if bareFirst {
					chain = bare(chain)
				}
				patches, compactions := 0, 0
				for step := 0; step < steps; step++ {
					at := fmt.Sprintf("directed=%v bareFirst=%v seed=%d step=%d", directed, bareFirst, seed, step)
					edits, touched := randomEditBatch(rng, n, 4, 0.35)
					e := edits[0] // delete-then-re-add inside one batch
					edits = append(edits, Edit{Src: e.Src, Dst: e.Dst, Delete: true},
						Edit{Src: e.Src, Dst: e.Dst, Weight: 7, Time: int64(step)})
					g.ApplyEdits(edits)
					model.apply(directed, edits)
					if err := g.Validate(); err != nil {
						t.Fatal(err)
					}

					full := g.Snapshot()
					if err := full.Validate(); err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					want := model.snapshot(t, n, directed)
					if !full.Equal(want) {
						t.Fatalf("%s: Snapshot() != model", at)
					}
					next := g.SnapshotDelta(chain, touched)
					if err := next.Validate(); err != nil {
						t.Fatalf("%s: patched snapshot invalid: %v", at, err)
					}
					if !next.Equal(want) || next.NumEdges() != want.NumEdges() {
						t.Fatalf("%s: link %d of the chain != model", at, step+1)
					}
					if shared, ok := inPlace(chain, next, touched); ok && shared {
						patches++
					} else if ok {
						compactions++
					}
					if got := g.SnapshotDelta(bare(chain), touched); !got.Equal(want) {
						t.Fatalf("%s: SnapshotDelta(weightless prev) != model", at)
					}
					chain = next
				}
				// A link here rewrites about a third of the arcs, so the 2x
				// arena takes about three patches between fresh emits.
				if patches < steps/2 || compactions < 3 {
					t.Fatalf("directed=%v bareFirst=%v seed=%d: %d in-place patches and %d fresh emits over %d links; the chain should mix both",
						directed, bareFirst, seed, patches, compactions, steps)
				}
			}
		}
	}
}
