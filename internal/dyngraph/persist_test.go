package dyngraph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	src := gen.RMAT(8, 8, gen.Graph500RMAT, 9, false)
	g := FromGraph(src)
	g.InsertEdge(0, 1, 2.5, 77) // ensure a nontrivial payload survives
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if g2.Directed() != g.Directed() {
		t.Fatal("directedness lost")
	}
	// Full payload comparison.
	for v := int32(0); v < g.NumVertices(); v++ {
		type payload struct {
			w float32
			t int64
		}
		want := make(map[int32]payload)
		g.ForEachNeighbor(v, func(dst int32, w float32, tm int64) {
			want[dst] = payload{w, tm}
		})
		count := 0
		g2.ForEachNeighbor(v, func(dst int32, w float32, tm int64) {
			count++
			p, ok := want[dst]
			if !ok || p.w != w || p.t != tm {
				t.Fatalf("vertex %d arc %d payload mismatch", v, dst)
			}
		})
		if count != len(want) {
			t.Fatalf("vertex %d arc count mismatch", v)
		}
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadDirected(t *testing.T) {
	g := New(4, true)
	g.InsertEdge(0, 1, 1, 1)
	g.InsertEdge(3, 0, 2, 2)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 1) || g2.HasEdge(1, 0) {
		t.Fatal("directed arcs wrong after reload")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a graph")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewBuffer(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated stream: valid header claiming more edges than present.
	g := New(3, false)
	g.InsertEdge(0, 1, 1, 0)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := Load(bytes.NewBuffer(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestLoadRejectsWrongVersionAndRange(t *testing.T) {
	g := New(3, false)
	g.InsertEdge(0, 1, 1, 0)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := Load(bytes.NewBuffer(data)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestLoadRejectsBadCounts: the header's vertex and edge counts are checked
// before either sizes anything, so a hostile header is an error, not a panic
// in make or a loop over records that cannot exist.
func TestLoadRejectsBadCounts(t *testing.T) {
	header := func(n uint32, edges int64) []byte {
		var b bytes.Buffer
		for _, h := range []uint32{persistMagic, persistVersion, 0, n} {
			binary.Write(&b, binary.LittleEndian, h)
		}
		binary.Write(&b, binary.LittleEndian, edges)
		return b.Bytes()
	}
	for _, tc := range []struct {
		name    string
		n       uint32
		edges   int64
		wantErr string // "" = loads
	}{
		{"empty graph", 0, 0, ""},
		{"vertices, no edges", 5, 0, ""},
		{"negative vertex count", 1 << 31, 0, "vertex count"},
		{"max uint32 vertex count", 1<<32 - 1, 0, "vertex count"},
		{"negative edge count", 4, -1, "edge count"},
		{"edges on no vertices", 0, 1, "edge count"},
		{"more edges than vertex pairs", 3, 10, "edge count"},
		{"min int64 edge count", 3, -1 << 63, "edge count"},
	} {
		g, err := Load(bytes.NewReader(header(tc.n, tc.edges)))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "" && g.NumVertices() != int32(tc.n):
			t.Errorf("%s: loaded %d vertices, want %d", tc.name, g.NumVertices(), tc.n)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one naming the %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestSaveLoadSelfLoops: an undirected graph with self-loops round-trips
// whole, though the header's edge count falls short of the records by half
// the self-loops: Load reads the whole records past the count, and refuses
// a torn one.
func TestSaveLoadSelfLoops(t *testing.T) {
	g := New(8, false)
	g.InsertEdge(0, 1, 1, 0)
	g.InsertEdge(2, 2, 3, 4)
	g.InsertEdge(3, 3, 1, 0)
	g.InsertEdge(5, 5, 1, 0)
	g.InsertEdge(6, 7, 2, 9)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	g2, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumArcs() != g.NumArcs() {
		t.Fatalf("loaded %d arcs, want %d", g2.NumArcs(), g.NumArcs())
	}
	for _, e := range [][2]int32{{0, 1}, {2, 2}, {3, 3}, {5, 5}, {6, 7}} {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
	if _, err := Load(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("a torn trailing record was accepted")
	}
}
