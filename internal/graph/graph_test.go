package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDirected(t *testing.T) {
	b := NewBuilder(4)
	b.Add(0, 1)
	b.Add(0, 2)
	b.Add(2, 3)
	g := b.Build()
	if g.NumEdges() != 3 {
		t.Fatalf("want 3 arcs, got %d", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || !g.HasEdge(2, 3) {
		t.Fatal("missing expected arcs")
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed graph should not have reverse arc")
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int32{1, 2}) {
		t.Fatalf("neighbors(0) = %v", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderUndirected(t *testing.T) {
	g := FromEdges(3, false, [][2]int32{{0, 1}, {1, 2}})
	if g.NumEdges() != 4 {
		t.Fatalf("want 4 arcs, got %d", g.NumEdges())
	}
	if g.NumUndirectedEdges() != 2 {
		t.Fatalf("want 2 logical edges, got %d", g.NumUndirectedEdges())
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Fatal("undirected graph missing reverse arcs")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3).DedupEdges()
	b.Add(0, 1)
	b.Add(0, 1)
	b.Add(1, 1) // self loop dropped by default
	b.Add(1, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("want 2 arcs after dedup+loop removal, got %d", g.NumEdges())
	}

	b2 := NewBuilder(3).AllowSelfLoops()
	b2.Add(1, 1)
	g2 := b2.Build()
	if !g2.HasEdge(1, 1) {
		t.Fatal("self loop should be kept with AllowSelfLoops")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).Add(0, 5)
}

func TestWeights(t *testing.T) {
	b := NewBuilder(3).Weighted()
	b.AddWeighted(0, 1, 2.5)
	b.AddWeighted(0, 2, 1.5)
	g := b.Build()
	if w, ok := g.Weight(0, 1); !ok || w != 2.5 {
		t.Fatalf("weight(0,1) = %v,%v", w, ok)
	}
	if _, ok := g.Weight(1, 0); ok {
		t.Fatal("unexpected edge 1->0")
	}
	if ws := g.NeighborWeights(0); len(ws) != 2 {
		t.Fatalf("neighbor weights = %v", ws)
	}
	// Unweighted graphs report weight 1.
	ug := FromEdges(2, true, [][2]int32{{0, 1}})
	if w, ok := ug.Weight(0, 1); !ok || w != 1 {
		t.Fatalf("unweighted weight = %v,%v", w, ok)
	}
}

func TestTimestamps(t *testing.T) {
	b := NewBuilder(2).Timestamped()
	b.AddEdge(Edge{Src: 0, Dst: 1, Time: 42})
	g := b.Build()
	if ts := g.NeighborTimes(0); len(ts) != 1 || ts[0] != 42 {
		t.Fatalf("times = %v", ts)
	}
}

func TestTranspose(t *testing.T) {
	g := FromEdges(4, true, [][2]int32{{0, 1}, {0, 2}, {2, 3}, {3, 0}})
	gt := g.Transpose()
	if err := gt.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 4; v++ {
		for w := int32(0); w < 4; w++ {
			if g.HasEdge(v, w) != gt.HasEdge(w, v) {
				t.Fatalf("transpose mismatch at (%d,%d)", v, w)
			}
		}
	}
	// Transpose of undirected graph shares structure.
	ug := FromEdges(3, false, [][2]int32{{0, 1}})
	ut := ug.Transpose()
	if ut.NumEdges() != ug.NumEdges() {
		t.Fatal("undirected transpose changed arc count")
	}
}

func TestTransposeWeightsAndTimes(t *testing.T) {
	b := NewBuilder(3).Weighted().Timestamped()
	b.AddEdge(Edge{Src: 0, Dst: 1, Weight: 5, Time: 7})
	b.AddEdge(Edge{Src: 1, Dst: 2, Weight: 3, Time: 9})
	g := b.Build()
	gt := g.Transpose()
	if w, ok := gt.Weight(1, 0); !ok || w != 5 {
		t.Fatalf("transposed weight = %v,%v", w, ok)
	}
	if ts := gt.NeighborTimes(2); len(ts) != 1 || ts[0] != 9 {
		t.Fatalf("transposed times = %v", ts)
	}
}

func TestUndirectedConversion(t *testing.T) {
	g := FromEdges(3, true, [][2]int32{{0, 1}, {1, 2}})
	u := g.Undirected()
	if u.Directed() {
		t.Fatal("Undirected() returned directed graph")
	}
	if !u.HasEdge(1, 0) || !u.HasEdge(2, 1) {
		t.Fatal("missing symmetric arcs")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	// Property: transpose(transpose(g)) == g for random directed graphs.
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(40))
		b := NewBuilder(n).DedupEdges()
		m := rng.Intn(150)
		for i := 0; i < m; i++ {
			s, d := rng.Int31n(n), rng.Int31n(n)
			if s != d {
				b.Add(s, d)
			}
		}
		g := b.Build()
		gtt := g.Transpose().Transpose()
		if g.NumEdges() != gtt.NumEdges() {
			return false
		}
		for v := int32(0); v < n; v++ {
			if !reflect.DeepEqual(g.Neighbors(v), gtt.Neighbors(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(5).Weighted()
	b.AddWeighted(0, 1, 1.5)
	b.AddWeighted(1, 2, 2.5)
	b.AddWeighted(4, 0, 0.5)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip arcs %d != %d", g2.NumEdges(), g.NumEdges())
	}
	if w, ok := g2.Weight(1, 2); !ok || w != 2.5 {
		t.Fatalf("round trip weight = %v,%v", w, ok)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("0\n"), 2, true); err == nil {
		t.Fatal("want error for short line")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("a b\n"), 2, true); err == nil {
		t.Fatal("want error for non-numeric")
	}
	// Comments and inference of n.
	g, err := ReadEdgeList(bytes.NewBufferString("# c\n0 3\n"), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 {
		t.Fatalf("inferred n = %d", g.NumVertices())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(6, false, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}})
	sub, order := InducedSubgraph(g, []int32{1, 2, 4})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub vertices = %d", sub.NumVertices())
	}
	// Edges among {1,2,4}: (1,2) and (1,4).
	if sub.NumEdges() != 4 { // two undirected edges = 4 arcs
		t.Fatalf("sub arcs = %d", sub.NumEdges())
	}
	// Local 0 is global 1.
	if order[0] != 1 || order[1] != 2 || order[2] != 4 {
		t.Fatalf("order = %v", order)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(0, 2) {
		t.Fatal("missing local edges")
	}
	if sub.HasEdge(1, 2) {
		t.Fatal("unexpected edge 2-4")
	}
	// Duplicates in input collapse.
	sub2, order2 := InducedSubgraph(g, []int32{1, 1, 2})
	if sub2.NumVertices() != 2 || len(order2) != 2 {
		t.Fatal("duplicate input vertices not collapsed")
	}
}

func TestStats(t *testing.T) {
	g := FromEdges(5, false, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	s := ComputeStats(g)
	if s.MaxDegree != 3 || s.MinDegree != 0 {
		t.Fatalf("degrees = %d..%d", s.MinDegree, s.MaxDegree)
	}
	if s.Isolated != 1 {
		t.Fatalf("isolated = %d", s.Isolated)
	}
	if s.NumArcs != 6 {
		t.Fatalf("arcs = %d", s.NumArcs)
	}
	v, d := MaxDegreeVertex(g)
	if v != 0 || d != 3 {
		t.Fatalf("max degree vertex %d(%d)", v, d)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := FromEdges(4, false, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	h := DegreeHistogram(g)
	// Degrees: 3,1,1,1 -> bucket of 1 is [1,2) index 1; 3 is [2,4) index 3.
	if h[1] != 3 {
		t.Fatalf("hist = %v", h)
	}
	var total int64
	for _, c := range h {
		total += c
	}
	if total != 4 {
		t.Fatalf("hist total = %d", total)
	}
}

func TestPropertyTable(t *testing.T) {
	p := NewPropertyTable(4)
	p.SetNumeric("score", 2, 7.5)
	if p.Numeric("score", 2) != 7.5 || p.Numeric("score", 0) != 0 {
		t.Fatal("numeric get/set broken")
	}
	if p.Numeric("absent", 1) != 0 {
		t.Fatal("absent column should read 0")
	}
	p.SetLabel("name", 1, "alice")
	if p.Label("name", 1) != "alice" || p.Label("name", 0) != "" {
		t.Fatal("label get/set broken")
	}
	if err := p.SetNumericColumn("bulk", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetNumericColumn("bad", []float64{1}); err == nil {
		t.Fatal("want length error")
	}
	if got := p.NumericNames(); !reflect.DeepEqual(got, []string{"bulk", "score"}) {
		t.Fatalf("names = %v", got)
	}
	if got := p.LabelNames(); !reflect.DeepEqual(got, []string{"name"}) {
		t.Fatalf("label names = %v", got)
	}
}

func TestPropertyTopK(t *testing.T) {
	p := NewPropertyTable(5)
	for v, val := range []float64{3, 9, 1, 9, 5} {
		p.SetNumeric("x", int32(v), val)
	}
	top := p.TopK("x", 3)
	if !reflect.DeepEqual(top, []int32{1, 3, 4}) {
		t.Fatalf("topk = %v", top)
	}
	if p.TopK("missing", 3) != nil {
		t.Fatal("topk on missing column should be nil")
	}
	if got := p.TopK("x", 100); len(got) != 5 {
		t.Fatalf("topk clamp = %v", got)
	}
}

func TestPropertyProject(t *testing.T) {
	p := NewPropertyTable(4)
	for v := int32(0); v < 4; v++ {
		p.SetNumeric("a", v, float64(v*10))
		p.SetLabel("l", v, string(rune('a'+v)))
	}
	q := p.Project([]int32{3, 1}, []string{"a", "nope"}, []string{"l"})
	if q.NumVertices() != 2 {
		t.Fatalf("projected n = %d", q.NumVertices())
	}
	if q.Numeric("a", 0) != 30 || q.Numeric("a", 1) != 10 {
		t.Fatal("projection values wrong")
	}
	if q.Label("l", 0) != "d" {
		t.Fatal("label projection wrong")
	}
	if _, ok := q.NumericColumn("nope"); ok {
		t.Fatal("absent column should not materialize")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := FromEdges(3, true, [][2]int32{{0, 1}, {1, 2}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.targets[0] = 99
	if err := g.Validate(); err == nil {
		t.Fatal("want validation error for out-of-range target")
	}
}

func TestWriteEdgeListUndirected(t *testing.T) {
	g := FromEdges(4, false, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Each undirected edge emitted once.
	lines := 0
	for _, b := range buf.Bytes() {
		if b == '\n' {
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("lines = %d, want 3", lines)
	}
	g2, err := ReadEdgeList(&buf, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumUndirectedEdges() != 3 || !g2.HasEdge(1, 0) {
		t.Fatal("undirected round trip broken")
	}
}
