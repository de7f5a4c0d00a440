package main

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/kernels"
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
		{[]string{"kernels", "-gen", "bogus"}, `unknown -gen "bogus" (rmat|ba|ws|er)`},
		{[]string{"kernels", "-kernel", "nosuch"}, `unknown -kernel "nosuch" (valid: `},
		{[]string{"streams", "-updates", "0"}, "-updates must be positive"},
		{[]string{"streams", "-nosuchflag"}, "flag provided but not defined"},
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
		edits := make([]dyngraph.Edit, len(ups))
		for i, u := range ups {
			edits[i] = dyngraph.Edit{Src: u.Src, Dst: u.Dst, Time: u.Time, Delete: u.Delete}
		}
		dg := dyngraph.New(streamVertices, false)
		if dg.ApplyEdits(edits).Deleted == 0 {
			t.Fatalf("%d updates deleted no edge", tc.updates)
		}
		want := kernels.WCC(dg.Snapshot())
		if got.NumComponents != want.NumComponents || !slices.Equal(got.Label, want.Label) {
			t.Errorf("%d updates in batches of %d: incremental %d components, batch %d (labels equal: %v)",
				tc.updates, tc.batch, got.NumComponents, want.NumComponents, slices.Equal(got.Label, want.Label))
		}
	}
}
