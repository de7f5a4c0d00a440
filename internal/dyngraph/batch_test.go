package dyngraph

import "testing"

func TestApplyEdits(t *testing.T) {
	g := New(16, false)
	res := g.ApplyEdits([]Edit{
		{Src: 0, Dst: 1, Time: 1},              // insert, weight normalizes to 1
		{Src: 0, Dst: 2, Weight: 2.5, Time: 2}, // weighted insert
		{Src: 0, Dst: 1, Weight: 9, Time: 3},   // property update of existing edge
		{Src: 3, Dst: 4, Delete: true},         // delete of absent edge
		{Src: 0, Dst: 2, Delete: true},         // real delete
		{Src: 5, Dst: 5, Weight: 2},            // self-loop, never stored
	})
	want := BatchResult{Inserted: 2, Updated: 1, Deleted: 1, NoOps: 2}
	if res != want {
		t.Fatalf("ApplyEdits = %+v, want %+v", res, want)
	}
	var gotW float32
	var gotT int64
	g.ForEachNeighbor(0, func(w int32, weight float32, tm int64) {
		if w == 1 {
			gotW, gotT = weight, tm
		}
	})
	if gotW != 9 || gotT != 3 {
		t.Fatalf("edge (0,1) payload = (%v,%v), want (9,3) after property update", gotW, gotT)
	}
	if g.HasEdge(0, 2) {
		t.Fatal("edge (0,2) survived delete")
	}
	if g.Degree(5) != 0 || g.NumEdges() != 1 {
		t.Fatalf("self-loop stored: degree(5) = %d, %d edges, want 0 and 1", g.Degree(5), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
