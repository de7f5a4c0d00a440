package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/wire/snapfmt"
)

// TestConvertSnapshot: convert-snapshot turns a legacy snapshot into a flat
// one holding the legacy graph's CSR snapshot, refuses to overwrite any
// file, and leaves no output behind when the input is not a legacy
// snapshot.
func TestConvertSnapshot(t *testing.T) {
	dir := t.TempDir()
	legacy, flat := filepath.Join(dir, "graph.legacy"), filepath.Join(dir, "graph.gsnf")
	dg := dyngraph.FromGraph(gen.RMAT(8, 8, gen.Graph500RMAT, 3, false))
	dg.InsertEdge(0, 1, 2.5, 77)
	dg.InsertEdge(4, 4, 1, 0)
	f, err := os.Create(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if err := convertSnapshot(legacy, flat); err != nil {
		t.Fatalf("convert: %v", err)
	}
	got, err := snapfmt.ReadFile(flat)
	if err != nil {
		t.Fatalf("read converted: %v", err)
	}
	if want := dg.Snapshot(); !got.Equal(want) {
		t.Fatalf("converted graph has %d arcs over %d vertices, legacy snapshot %d over %d",
			got.NumEdges(), got.NumVertices(), want.NumEdges(), want.NumVertices())
	}

	for _, out := range []string{flat, legacy} {
		if err := convertSnapshot(legacy, out); err == nil || !os.IsExist(err) {
			t.Fatalf("convert onto existing %s: %v, want an already-exists error", filepath.Base(out), err)
		}
	}

	other := filepath.Join(dir, "other.gsnf")
	if err := convertSnapshot(flat, other); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("converting a flat snapshot: %v, want a bad-magic error", err)
	}
	if _, err := os.Stat(other); !os.IsNotExist(err) {
		t.Fatalf("a failed conversion left %s behind: %v", other, err)
	}
}
