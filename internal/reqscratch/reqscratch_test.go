package reqscratch

import (
	"math"
	"slices"
	"testing"

	"repro/internal/kernels"
	"repro/internal/wire"
)

// TestResetPoisons: results held past Reset read poison under go test, and
// the Scratch starts empty again however much it held.
func TestResetPoisons(t *testing.T) {
	s := &Scratch{}
	s.Verts = append(s.Verts, 1, 2, 3)
	verts := s.Verts
	s.Scores = append(s.Scores, kernels.JaccardPairScore{U: 1, V: 2, Inter: 1, Score: 0.5})
	scores := s.Scores
	s.Pairs = append(s.Pairs, wire.JaccardPair{V: 2, Score: 0.5, Inter: 1})
	pairs := s.Pairs
	adj := s.AdjFor(2)
	adj[1].Want, adj[1].Pos = append(adj[1].Want, 7), append(adj[1].Pos, 0)
	adj[1].AppendList([]int32{4, 5})
	list := adj[1].List(0)
	s.Lists = append(s.Lists, list)
	s.Body = append(s.Body, `[{"src":1,"dst":2}]`...)
	body := s.Body
	s.Edits = append(s.Edits, wire.IngestEdit{Src: 1, Dst: 2, Weight: 1, Time: 3})
	edits := s.Edits

	s.Reset()
	if !slices.Equal(verts, []int32{-1, -1, -1}) || !slices.Equal(list, []int32{-1, -1}) {
		t.Fatalf("held vertices %v and adjacency %v were not poisoned", verts, list)
	}
	if adj[1].Want[0] != -1 || adj[1].Pos[0] != -1 || adj[1].Offsets[0] != -1 {
		t.Fatalf("exchange bookkeeping was not poisoned: %+v", adj[1])
	}
	if sc := scores[0]; sc.V != -1 || !math.IsNaN(sc.Score) {
		t.Fatalf("held score %+v was not poisoned", sc)
	}
	if p := pairs[0]; p.V != -1 || p.Inter != -1 || !math.IsNaN(p.Score) {
		t.Fatalf("held pair %+v was not poisoned", p)
	}
	if e := edits[0]; e.Src != -1 || e.Dst != -1 || e.Time != -1 || !math.IsNaN(float64(e.Weight)) {
		t.Fatalf("held edit %+v was not poisoned", e)
	}
	if slices.ContainsFunc(body, func(b byte) bool { return b != 0xff }) {
		t.Fatalf("held body %q was not poisoned", body)
	}
	if len(s.Verts)+len(s.Scores)+len(s.Pairs)+len(s.Lists)+len(s.Body)+len(s.Edits) != 0 {
		t.Fatal("Reset left results in the scratch")
	}
	for _, a := range s.AdjFor(2) {
		if len(a.Want)+len(a.Pos)+a.Len()+len(a.Targets) != 0 {
			t.Fatalf("AdjFor did not empty a slot: %+v", a)
		}
	}
}
