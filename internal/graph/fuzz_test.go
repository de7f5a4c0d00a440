package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList drives the text edge-list parser with arbitrary input
// under both explicit and inferred vertex counts. The parser must never
// panic — malformed lines, negative or out-of-range IDs, and overflowing
// counts all have to surface as errors — and anything it does accept must
// round-trip through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n2 0\n", int32(0), false)
	f.Add("# comment\n% comment\n3 4 0.5\n", int32(8), false)
	f.Add("0 1\n", int32(-1), true)
	f.Add("5 5\n5 6\n", int32(0), true)
	f.Add("-1 2\n", int32(4), false)
	f.Add("2147483647 0\n", int32(0), false)
	f.Add("1 2 not-a-weight\n", int32(4), false)
	f.Add("lone\n", int32(0), false)
	f.Add("0 1 1e300\n0\t2\t-7.5\n", int32(3), true)
	f.Fuzz(func(t *testing.T, data string, n int32, directed bool) {
		g, err := ReadEdgeList(strings.NewReader(data), n, directed)
		if err != nil {
			return
		}
		if g.NumVertices() < 0 {
			t.Fatalf("negative vertex count %d", g.NumVertices())
		}
		// Every accepted graph must round-trip: write it out, read it back,
		// and get the identical structure.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), g.NumVertices(), g.Directed())
		if err != nil {
			t.Fatalf("reread written graph: %v", err)
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round-trip changed shape: %dv/%de -> %dv/%de",
				g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
		for v := int32(0); v < g.NumVertices(); v++ {
			ns, ns2 := g.Neighbors(v), g2.Neighbors(v)
			if len(ns) != len(ns2) {
				t.Fatalf("round-trip changed degree of %d: %d -> %d", v, len(ns), len(ns2))
			}
			for i := range ns {
				if ns[i] != ns2[i] {
					t.Fatalf("round-trip changed neighbor %d of %d", i, v)
				}
			}
		}
	})
}
