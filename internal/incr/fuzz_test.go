package incr

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// decodeEditScript turns fuzz bytes into a batched edit stream over a small
// fixed vertex set. Each edit consumes 3 bytes: endpoints mod n (so
// self-loops arise naturally), a delete bit, a weight nibble, and a
// batch-break bit that closes the current batch. Duplicate edits and
// delete-then-add sequences come straight from the input bytes.
func decodeEditScript(data []byte, n int32) [][]dyngraph.Edit {
	const maxEdits = 512
	var batches [][]dyngraph.Edit
	var cur []dyngraph.Edit
	total := 0
	for i := 0; i+2 < len(data) && total < maxEdits; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		cur = append(cur, dyngraph.Edit{
			Src:    int32(b0) % n,
			Dst:    int32(b1) % n,
			Weight: float32(b2>>4) + 1,
			Time:   int64(total),
			Delete: b2&1 == 1,
		})
		total++
		if b2&2 == 2 {
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// chainScript is a seed of one-edit batches, a third of them deletes: long
// enough (each batch is one link) that the snapshot chain outgrows and
// replaces its shared arena several times.
func chainScript(batches int) []byte {
	data := make([]byte, 0, 3*batches)
	for i := 0; i < batches; i++ {
		b2 := byte(i%7)<<4 | 2 // weight nibble, batch break
		if i%3 == 2 {
			b2 |= 1 // delete
		}
		data = append(data, byte(i*5), byte(i*11+i/16), b2)
	}
	return data
}

// FuzzApplyEditsIncremental holds the incremental-vs-full equivalence on
// adversarial edit batches: whatever byte stream arrives, applying it batch
// by batch and advancing every incremental structure must neither panic nor
// diverge from a full recompute on the same snapshot. The snapshot itself is
// a chain, every link patched from the one before (twice over: one chain
// starts from a snapshot without weight and time arrays), and every link
// must equal the full Snapshot().
func FuzzApplyEditsIncremental(f *testing.F) {
	// Directed seeds: insert chain, self-loops, duplicate edits,
	// delete-then-add, delete of a never-inserted edge, batch breaks.
	f.Add([]byte{0, 1, 16, 1, 2, 18, 2, 3, 16})
	f.Add([]byte{5, 5, 16, 5, 5, 17, 5, 5, 18})
	f.Add([]byte{0, 1, 16, 0, 1, 16, 0, 1, 17, 0, 1, 16})
	f.Add([]byte{3, 4, 19, 7, 7, 255, 4, 3, 1, 3, 4, 2})
	f.Add([]byte{9, 2, 1, 9, 2, 3, 2, 9, 16})
	f.Add(chainScript(96))

	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16
		ctx := context.Background()
		opt := kernels.DefaultPageRankOptions()

		for _, directed := range []bool{false, true} {
			dyn := dyngraph.New(n, directed)
			snap := dyn.Snapshot()
			bareChain, err := graph.FromCSRArrays(n, directed, make([]int64, n+1), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			wcc := NewWCCState(n)
			pr := NewPRState(n, opt)
			deg := NewDegreeState(n)

			var version int64
			for _, edits := range decodeEditScript(data, n) {
				res := dyn.ApplyEdits(edits)
				version++
				window := []Batch{{Version: version, Edits: edits, HadDeletes: res.Deleted > 0}}

				touched := TouchedVertices(window, n)
				full := dyn.Snapshot()
				snap = dyn.SnapshotDelta(snap, touched)
				bareChain = dyn.SnapshotDelta(bareChain, touched)
				if !snap.Equal(full) || !bareChain.Equal(full) {
					t.Fatalf("directed=%v v%d: SnapshotDelta diverged from full snapshot", directed, version)
				}
				if err := snap.Validate(); err != nil {
					t.Fatalf("directed=%v v%d: patched snapshot invalid: %v", directed, version, err)
				}

				ccGot, err := wcc.Advance(ctx, snap, version, window)
				if err != nil {
					t.Fatalf("directed=%v v%d: wcc advance: %v", directed, version, err)
				}
				if want := kernels.WCC(snap); !reflect.DeepEqual(ccGot, want) {
					t.Fatalf("directed=%v v%d: incremental WCC != full recompute", directed, version)
				}

				rankGot, _, err := pr.Advance(ctx, snap, version, window)
				if err != nil {
					t.Fatalf("directed=%v v%d: pagerank advance: %v", directed, version, err)
				}
				rankWant, _ := kernels.PageRank(snap, opt)
				s := 0.0
				for i := range rankGot {
					s += math.Abs(rankGot[i] - rankWant[i])
				}
				if s > prCmpTol {
					t.Fatalf("directed=%v v%d: incremental PageRank L1 distance %.3g", directed, version, s)
				}

				degGot, err := deg.Advance(ctx, snap, version, window)
				if err != nil {
					t.Fatalf("directed=%v v%d: degree advance: %v", directed, version, err)
				}
				if got, want := kernels.TopKByScore(degGot, 5), kernels.TopKByDegree(snap, 5); !reflect.DeepEqual(got, want) {
					t.Fatalf("directed=%v v%d: incremental top-k != full recompute", directed, version)
				}
			}
		}
	})
}
