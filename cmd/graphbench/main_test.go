package main

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/obsv"
)

// TestRunUsageErrors: a command line that names no subcommand, an unknown
// one, a stray argument, or a bad flag value is a usage error (exit 2) and
// runs nothing.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "missing subcommand"},
		{[]string{"-scale", "6", "kernels"}, `unknown subcommand "-scale"`},
		{[]string{"kernel"}, `unknown subcommand "kernel"`},
		{[]string{"streams", "-items", "10", "extra"}, "unexpected arguments: [extra]"},
		{[]string{"kernels", "-scale", "0"}, "-scale 0 out of range"},
		{[]string{"streams", "-updates", "0"}, "-updates must be positive"},
		{[]string{"matrix", "-nosuchflag"}, "flag provided but not defined"},
		{[]string{"matrix", "-quick", "-kernels", "bfs,bfss"},
			`unknown -kernels entry "bfss" (valid: bfs, sssp-delta, wcc, kcore, pagerank, triangles, jaccard-topk, spgemm, jaccard-stream, build)`},
	} {
		err := run(tc.args)
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want a usage error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestStreamsIncrWCCMatchesBatch: the streams subcommand's inc-wcc row,
// which advances incr.WCCState one applied batch at a time, ends on the
// components a batch WCC finds on the final graph — in graphd-sized batches
// and as a batch of one per update.
func TestStreamsIncrWCCMatchesBatch(t *testing.T) {
	for _, tc := range []struct{ updates, batch int }{{5000, ingestBatch}, {400, 1}} {
		ups := gen.EdgeUpdateStream(16, tc.updates, 0.1, 77)
		got, err := incrWCC(ups, streamVertices, tc.batch)
		if err != nil {
			t.Fatal(err)
		}
		dg := dyngraph.New(streamVertices, false)
		if dg.ApplyBatch(ups).Deleted == 0 {
			t.Fatalf("%d updates deleted no edge", tc.updates)
		}
		want := kernels.WCC(dg.Snapshot())
		if got.NumComponents != want.NumComponents || !slices.Equal(got.Label, want.Label) {
			t.Errorf("%d updates in batches of %d: incremental %d components, batch %d (labels equal: %v)",
				tc.updates, tc.batch, got.NumComponents, want.NumComponents, slices.Equal(got.Label, want.Label))
		}
	}
}

// TestMatrixCasesAreBaselineCases: a matrix subset run writes a BenchFile
// whose every case has a trajectory in the committed baseline.
func TestMatrixCasesAreBaselineCases(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"matrix", "-quick", "-scales", "10", "-kernels", "bfs", "-nora=false", "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := obsv.ReadBenchFile(out)
	if err != nil {
		t.Fatal(err)
	}
	base, err := obsv.ReadBenchFile(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	inBase := map[string]bool{}
	for _, c := range base.Cases {
		inBase[c.Name] = true
	}
	if len(got.Cases) != 2 {
		t.Fatalf("wrote %d cases, want bfs on the two families", len(got.Cases))
	}
	for _, c := range got.Cases {
		if !inBase[c.Name] {
			t.Errorf("case %s is not in BENCH_baseline.json", c.Name)
		}
	}
}

// TestMatrixEmptyComparisonFails: a -baseline run that shares no case with
// the baseline fails instead of reporting "no regressions".
func TestMatrixEmptyComparisonFails(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"matrix", "-quick", "-scales", "6", "-kernels", "bfs", "-nora=false", "-out", out,
		"-baseline", filepath.Join("..", "..", "BENCH_baseline.json")})
	if err == nil || errors.As(err, new(usageError)) || !strings.Contains(err.Error(), "nothing was compared") {
		t.Fatalf("run = %v, want a run error saying nothing was compared", err)
	}
}
