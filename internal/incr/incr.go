// Package incr maintains snapshot-attached kernel state incrementally,
// driven by the edit batches the serving layer applies to the dynamic
// graph. It replaces full recompute-per-version for the kernels graphd
// caches per snapshot version: weakly connected components (union-find
// across versions with split handling), PageRank (selective correction
// propagation from batch-touched vertices), and the degree vector behind
// top-k queries.
//
// Contracts shared by every state type:
//
//   - Equivalence: after Advance to version V over the CSR snapshot at V,
//     results equal a full kernel run on that snapshot — byte-identical for
//     WCC labels and degree vectors, within the kernel's convergence
//     tolerance for PageRank. The differential oracle in difftest_test.go
//     and FuzzApplyEditsIncremental hold this.
//   - Versioned batches: Advance takes the contiguous batch window
//     (state.Version(), V]; gaps or overlaps are rejected so a state can
//     never silently drift from the graph it mirrors.
//   - Commit on success: Advance works on copies and installs them only
//     when it completes. On error (including context cancellation via
//     par.CtxErr-style deadline checks) the state is unchanged and a later
//     retry or fallback recompute sees the pre-Advance version.
//   - Single writer: states are not safe for concurrent Advance; the
//     serving layer serializes access under its per-kernel cache locks.
package incr

import (
	"fmt"
	"slices"

	"repro/internal/dyngraph"
)

// ctxCheckEvery is the cadence of cooperative cancellation checks inside
// sequential loops, matching the kernels package: frequent enough to bound
// deadline overshoot to microseconds, rare enough to stay off the profile.
const ctxCheckEvery = 4096

// Batch is one applied, deduplicated edit batch together with the graph
// version its application produced.
type Batch struct {
	// Version is the graph version after this batch was applied.
	Version int64
	// Edits are the applied edits in application order. The slice must not
	// be mutated after the batch is constructed; states read it on every
	// Advance across the window.
	Edits []dyngraph.Edit
	// HadDeletes records whether applying the batch actually removed at
	// least one edge (BatchResult.Deleted > 0). When false, delete edits in
	// the batch were no-ops on the graph and WCC advancement can skip its
	// split-handling recompute.
	HadDeletes bool
}

// TouchedVertices returns the ascending distinct in-range vertex IDs named
// as an endpoint by any edit in batches — the superset of vertices whose
// adjacency row, degree, or PageRank pull inputs may differ between the two
// snapshot versions the window spans.
func TouchedVertices(batches []Batch, n int32) []int32 {
	edits := 0
	for _, b := range batches {
		edits += len(b.Edits)
	}
	out := make([]int32, 0, 2*edits)
	for _, b := range batches {
		for _, e := range b.Edits {
			if e.Src >= 0 && e.Src < n {
				out = append(out, e.Src)
			}
			if e.Dst >= 0 && e.Dst < n {
				out = append(out, e.Dst)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// validateAdvance checks the batch-window contract shared by every Advance:
// batches strictly follow the state's version, are contiguous, and end
// exactly at the target version.
func validateAdvance(from, to int64, batches []Batch) error {
	want := from
	for _, b := range batches {
		if b.Version != want+1 {
			return fmt.Errorf("incr: batch version %d does not follow %d", b.Version, want)
		}
		want = b.Version
	}
	if want != to {
		return fmt.Errorf("incr: batches end at version %d, advance target is %d", want, to)
	}
	return nil
}
