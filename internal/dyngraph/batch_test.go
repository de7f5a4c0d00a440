package dyngraph

import (
	"testing"

	"repro/internal/gen"
)

func TestApplyBatchAccounting(t *testing.T) {
	g := New(8, false)
	res := g.ApplyBatch([]gen.EdgeUpdate{
		{Src: 0, Dst: 1},               // insert
		{Src: 0, Dst: 1},               // refresh
		{Src: 1, Dst: 2},               // insert
		{Src: 0, Dst: 1, Delete: true}, // delete
		{Src: 5, Dst: 6, Delete: true}, // no-op
	})
	if res.Inserted != 2 || res.Updated != 1 || res.Deleted != 1 || res.NoOps != 1 {
		t.Fatalf("batch = %+v", res)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestApplyEdits(t *testing.T) {
	g := New(16, false)
	res := g.ApplyEdits([]Edit{
		{Src: 0, Dst: 1, Time: 1},              // insert, weight normalizes to 1
		{Src: 0, Dst: 2, Weight: 2.5, Time: 2}, // weighted insert
		{Src: 0, Dst: 1, Weight: 9, Time: 3},   // property update of existing edge
		{Src: 3, Dst: 4, Delete: true},         // delete of absent edge
		{Src: 0, Dst: 2, Delete: true},         // real delete
	})
	want := BatchResult{Inserted: 2, Updated: 1, Deleted: 1, NoOps: 1}
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
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
