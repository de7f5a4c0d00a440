package graph

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// emitRows writes rows (vertex → ascending targets) over prev through r, a
// directed n-vertex graph whose other rows are prev's (empty without one).
func emitRows(r *Recycler, prev *Graph, n int32, rows map[int32][]int32) *Graph {
	var fresh, live int64
	if prev != nil {
		live = prev.NumEdges()
	}
	var vs []int32
	for v, ts := range rows {
		vs = append(vs, v)
		fresh += int64(len(ts))
		live += int64(len(ts))
		if prev != nil {
			live -= int64(prev.Degree(v))
		}
	}
	slices.Sort(vs)
	e := r.NewEmitter(n, true, prev, fresh, live)
	for _, v := range vs {
		ts, ws, tm := e.Row(v, len(rows[v]))
		copy(ts, rows[v])
		for i := range ws {
			ws[i], tm[i] = 1, int64(v)
		}
	}
	return e.Graph()
}

// rowsOf returns g's rows as the map emitRows takes, empty rows left out.
func rowsOf(g *Graph) map[int32][]int32 {
	rows := map[int32][]int32{}
	for v := int32(0); v < g.NumVertices(); v++ {
		if nb := g.Neighbors(v); len(nb) > 0 {
			rows[v] = slices.Clone(nb)
		}
	}
	return rows
}

// TestRecyclerReusesReleasedStorage walks a version chain through one
// Recycler: a released version's row index goes to the next version, its
// arena becomes the spare once no unreleased version lives in it, released
// storage is poisoned under go test, and versions still held stay intact.
func TestRecyclerReusesReleasedStorage(t *testing.T) {
	const n = 8
	var r Recycler
	v1 := emitRows(&r, nil, n, map[int32][]int32{0: {1}, 1: {2}, 2: {3}})
	v2 := emitRows(&r, v1, n, map[int32][]int32{3: {4}}) // v1's arena is exactly full
	if v2.arena == v1.arena {
		t.Fatal("v2 extended a full arena")
	}
	want2 := rowsOf(v2)
	index1, arena1 := v1.index, v1.arena

	r.Release(v1)
	if index1[0] != -1 || arena1.targets[0] != -1 || !math.IsNaN(float64(arena1.weights[0])) || arena1.times[0] != -1 {
		t.Fatal("released storage was not poisoned under go test")
	}
	if r.spare != arena1 {
		t.Fatal("an arena whose every version was released did not become the spare")
	}

	v3 := emitRows(&r, v2, n, map[int32][]int32{0: {1, 2}})
	if &v3.index[0] != &index1[0] {
		t.Fatal("v3 did not take v1's released row index")
	}
	if v3.arena != v2.arena {
		t.Fatal("v3 did not extend v2's arena")
	}
	if got := rowsOf(v2); !equalRows(got, want2) {
		t.Fatalf("held v2 changed under v3: rows %v, want %v", got, want2)
	}
	r.Release(v2) // v3 still lives in the arena: only the index comes back
	if r.spare != arena1 {
		t.Fatal("an arena a held version lives in became the spare")
	}
	want3 := map[int32][]int32{0: {1, 2}, 1: {2}, 2: {3}, 3: {4}}
	if got := rowsOf(v3); !equalRows(got, want3) {
		t.Fatalf("v3 rows %v, want %v", got, want3)
	}
	if err := v3.Validate(); err != nil {
		t.Fatal(err)
	}

	// Non-arena graphs hold nothing to take back.
	r.Release(FromEdges(n, true, [][2]int32{{0, 1}}))
	r.Release(nil)
}

// TestRecyclerSpareArenaRule: a fresh arena is the spare when the spare has
// at least half the headroom a new one would get — so a slowly growing graph
// keeps reusing it — and a new one of twice the live arcs otherwise, the
// too-small spare dropped.
func TestRecyclerSpareArenaRule(t *testing.T) {
	spare := func(arcs int) *arena {
		return &arena{targets: make([]int32, arcs), weights: make([]float32, arcs), times: make([]int64, arcs)}
	}
	for _, c := range []struct {
		spareArcs, live int
		patched, reused bool
		room            int // the arena's size when not reused
	}{
		{spareArcs: 200, live: 100, patched: true, reused: true},
		{spareArcs: 150, live: 100, patched: true, reused: true}, // nearly outgrown: still taken
		{spareArcs: 149, live: 100, patched: true, reused: false, room: 200},
		{spareArcs: 100, live: 100, patched: false, reused: true},
		{spareArcs: 99, live: 100, patched: false, reused: false, room: 100},
	} {
		s := spare(c.spareArcs)
		r := &Recycler{spare: s}
		a := r.takeArena(int64(c.live), c.patched)
		if r.spare != nil {
			t.Errorf("%+v: the spare was kept after a take", c)
		}
		if got := a == s; got != c.reused {
			t.Errorf("%+v: reused = %v", c, got)
		}
		if !c.reused && len(a.targets) != c.room {
			t.Errorf("%+v: fresh arena of %d arcs, want %d", c, len(a.targets), c.room)
		}
	}
	if a := (*Recycler)(nil).takeArena(10, true); len(a.targets) != 20 {
		t.Errorf("a nil Recycler's arena has %d arcs, want 20", len(a.targets))
	}
}

func equalRows(a, b map[int32][]int32) bool { return maps.EqualFunc(a, b, slices.Equal[[]int32]) }
