package graph

import "testing"

// A graph rebuilt through CSR() -> FromCSRArrays must be indistinguishable
// from the original.
func TestFromCSRArraysRoundTrip(t *testing.T) {
	b := NewBuilder(6).Undirected().Weighted().Timestamped().DedupEdges()
	b.AddEdge(Edge{Src: 0, Dst: 1, Weight: 2, Time: 10})
	b.AddEdge(Edge{Src: 1, Dst: 2, Weight: 3, Time: 20})
	b.AddEdge(Edge{Src: 4, Dst: 5, Weight: 1, Time: 30})
	g := b.Build()

	off, tgt, w, ts := g.CSR()
	off2 := append([]int64(nil), off...)
	tgt2 := append([]int32(nil), tgt...)
	w2 := append([]float32(nil), w...)
	ts2 := append([]int64(nil), ts...)
	g2, err := FromCSRArrays(g.NumVertices(), g.Directed(), off2, tgt2, w2, ts2)
	if err != nil {
		t.Fatalf("FromCSRArrays: %v", err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.Equal(g2) || !g2.Equal(g) {
		t.Fatalf("round trip changed graph: %+v vs %+v", g, g2)
	}
}

func TestFromCSRArraysEmpty(t *testing.T) {
	g, err := FromCSRArrays(0, false, nil, nil, nil, nil)
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has vertices/edges: %d %d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFromCSRArraysRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		n       int32
		offsets []int64
		targets []int32
		weights []float32
	}{
		{"short offsets", 2, []int64{0, 1}, []int32{1}, nil},
		{"nonzero first offset", 1, []int64{1, 1}, nil, nil},
		{"non-monotone", 2, []int64{0, 2, 1}, []int32{1, 0}, nil},
		{"final offset mismatch", 2, []int64{0, 1, 3}, []int32{1, 0}, nil},
		{"weights length mismatch", 2, []int64{0, 1, 2}, []int32{1, 0}, []float32{1}},
	}
	for _, tc := range cases {
		if _, err := FromCSRArrays(tc.n, true, tc.offsets, tc.targets, tc.weights, nil); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// emit writes rows (vertex -> ascending targets, weight = target+0.5, time =
// 10*target) through an Emitter on top of prev.
func emit(n int32, prev *Graph, rows map[int32][]int32) *Graph {
	var fresh, live int64
	if prev != nil {
		live = prev.NumEdges()
	}
	for v, r := range rows {
		fresh += int64(len(r))
		if prev != nil {
			live -= int64(prev.Degree(v))
		}
	}
	e := NewEmitter(n, true, prev, fresh, live+fresh)
	for v := int32(0); v < n; v++ {
		r, ok := rows[v]
		if !ok {
			continue
		}
		tg, w, ts := e.Row(v, len(r))
		for i, x := range r {
			tg[i], w[i], ts[i] = x, float32(x)+0.5, 10*int64(x)
		}
	}
	return e.Graph()
}

// TestEmitterChain drives an Emitter chain by hand: a graph from scratch
// (exact size), its first patch (fresh 2x arena), a patch that fits there,
// one that does not, a patch from a version that is no longer the newest,
// and one from a contiguous graph. Every version must equal the contiguous
// graph with the same rows, before and after the later ones are written, and
// CSR() must compact it to exactly that graph.
func TestEmitterChain(t *testing.T) {
	const n = 5
	flat := func(rows map[int32][]int32) *Graph {
		b := NewBuilder(n).Weighted().Timestamped()
		for v, r := range rows {
			for _, x := range r {
				b.AddEdge(Edge{Src: v, Dst: x, Weight: float32(x) + 0.5, Time: 10 * int64(x)})
			}
		}
		return b.Build()
	}
	sameRow := func(a, b *Graph, v int32) bool { return &a.Neighbors(v)[0] == &b.Neighbors(v)[0] }
	rows0 := map[int32][]int32{0: {1, 2, 3}, 2: {0, 4}, 3: {}, 4: {1}}
	rows1 := map[int32][]int32{0: {1, 2, 3}, 2: {1}, 3: {0, 2}, 4: {1}}
	rows2 := map[int32][]int32{0: {4}, 1: {0, 2, 3, 4}, 2: {1}, 3: {0, 2}, 4: {1}}
	rows3 := map[int32][]int32{0: {1, 3, 4}, 1: {0, 2, 3, 4}, 2: {1}, 3: {0, 2}, 4: {1}}

	v0 := emit(n, nil, rows0)                                      // 6 arcs, no room to spare
	v1 := emit(n, v0, map[int32][]int32{2: rows1[2], 3: rows1[3]}) // 7 arcs into a fresh arena of 14
	if sameRow(v0, v1, 0) {
		t.Fatal("the first patch of a from-scratch graph must move to a fresh arena")
	}
	v2 := emit(n, v1, map[int32][]int32{0: rows2[0], 1: rows2[1]}) // appends 5 arcs: 12 of 14 used
	if !sameRow(v1, v2, 4) {
		t.Fatal("a patch that fits should leave untouched rows where they are")
	}
	v3 := emit(n, v2, map[int32][]int32{0: rows3[0]}) // 3 arcs, 2 spare
	if sameRow(v2, v3, 4) {
		t.Fatal("a patch that does not fit must move to a fresh arena")
	}
	stale := emit(n, v1, map[int32][]int32{0: rows2[0], 1: rows2[1]}) // v2 already extended v1's arena
	if sameRow(v1, stale, 4) {
		t.Fatal("a patch from a version that was already patched must move to a fresh arena")
	}
	fromFlat := emit(n, flat(rows1), map[int32][]int32{0: rows2[0], 1: rows2[1]})

	for _, c := range []struct {
		name string
		got  *Graph
		rows map[int32][]int32
	}{{"v0", v0, rows0}, {"v1", v1, rows1}, {"v2", v2, rows2}, {"v3", v3, rows3}, {"stale", stale, rows2}, {"fromFlat", fromFlat, rows2}} {
		want := flat(c.rows)
		if err := c.got.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.got.Equal(want) || !want.Equal(c.got) || c.got.NumEdges() != want.NumEdges() {
			t.Fatalf("%s != the contiguous graph with the same rows", c.name)
		}
		off, tgt, w, ts := c.got.CSR()
		compact, err := FromCSRArrays(n, true, off, tgt, w, ts)
		if err != nil {
			t.Fatalf("%s: CSR() arrays rejected: %v", c.name, err)
		}
		if !compact.Equal(want) || int64(len(tgt)) != want.NumEdges() {
			t.Fatalf("%s: CSR() did not compact to the same graph", c.name)
		}
		if !c.got.Transpose().Equal(want.Transpose()) {
			t.Fatalf("%s: transpose differs", c.name)
		}
	}
}

func TestEqualTellsGraphsApart(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder(3).Weighted().Timestamped()
		b.AddEdge(Edge{Src: 0, Dst: 1, Weight: 2, Time: 5})
		b.AddEdge(Edge{Src: 1, Dst: 2, Weight: 3, Time: 6})
		return b
	}
	g := base().Build()
	if !g.Equal(base().Build()) {
		t.Fatal("identical builds differ")
	}
	weight := NewBuilder(3).Weighted().Timestamped()
	weight.AddEdge(Edge{Src: 0, Dst: 1, Weight: 2, Time: 5})
	weight.AddEdge(Edge{Src: 1, Dst: 2, Weight: 4, Time: 6})
	moved := NewBuilder(3).Weighted().Timestamped()
	moved.AddEdge(Edge{Src: 0, Dst: 1, Weight: 2, Time: 5})
	moved.AddEdge(Edge{Src: 2, Dst: 1, Weight: 3, Time: 6})
	noTimes := NewBuilder(3).Weighted()
	noTimes.AddEdge(Edge{Src: 0, Dst: 1, Weight: 2})
	noTimes.AddEdge(Edge{Src: 1, Dst: 2, Weight: 3})
	larger := NewBuilder(4).Weighted().Timestamped()
	larger.AddEdge(Edge{Src: 0, Dst: 1, Weight: 2, Time: 5})
	larger.AddEdge(Edge{Src: 1, Dst: 2, Weight: 3, Time: 6})
	for name, o := range map[string]*Graph{
		"weight": weight.Build(), "row": moved.Build(), "no times": noTimes.Build(),
		"vertex count": larger.Build(), "directedness": base().Undirected().Build(),
	} {
		if g.Equal(o) || o.Equal(g) {
			t.Errorf("graphs differing in %s compare equal", name)
		}
	}
}
