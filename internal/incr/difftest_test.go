package incr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/kernels"
	"repro/internal/par"
)

// Differential oracle for incremental maintenance: every state type is
// driven through randomized edit-batch sequences and compared against a
// full recompute on the same snapshot after every advance. WCC labels,
// degree top-k, and the delta-patched CSR itself must be byte-identical;
// PageRank must agree within a small multiple of the kernel tolerance.
// Like the kernels differential suite, the whole sweep runs at worker
// counts {1, 2, 8} and under -race in CI.

var diffWorkers = []int{1, 2, 8}

// prCmpTol bounds the L1 distance between the incrementally advanced
// PageRank vector and a fresh full run. Each is within ~Tolerance/(1-d) of
// the true fixed point, plus sub-cutoff truncation carried by the selective
// sweeps; 100x the kernel tolerance covers both with a wide margin.
const prCmpTol = 100 * 1e-7

// withWorkers pins the par scheduler's default worker count for one
// closure, restoring the CPU-derived default afterwards.
func withWorkers(t *testing.T, w int, f func()) {
	t.Helper()
	par.SetDefaultWorkers(w)
	defer par.SetDefaultWorkers(0)
	f()
}

// editMode shapes one randomized batch sequence.
type editMode struct {
	name       string
	deleteFrac float64 // fraction of delete edits after warmup
	warmSteps  int     // leading all-insert steps so deletes find real edges
}

var editModes = []editMode{
	{name: "adds", deleteFrac: 0, warmSteps: 0},
	{name: "deletes", deleteFrac: 0.6, warmSteps: 3},
	{name: "mixed", deleteFrac: 0.25, warmSteps: 1},
}

// randomBatch includes the adversarial shapes the fuzz target also covers:
// self-loops, duplicate edits, and delete-then-add of the same pair.
func randomBatch(rng *rand.Rand, n int32, size int, deleteFrac float64) []dyngraph.Edit {
	edits := make([]dyngraph.Edit, 0, size+4)
	for i := 0; i < size; i++ {
		e := dyngraph.Edit{
			Src:    rng.Int31n(n),
			Dst:    rng.Int31n(n),
			Weight: rng.Float32()*4 + 0.5,
			Time:   rng.Int63n(1 << 20),
			Delete: rng.Float64() < deleteFrac,
		}
		edits = append(edits, e)
		switch rng.Intn(8) {
		case 0: // self-loop
			edits = append(edits, dyngraph.Edit{Src: e.Src, Dst: e.Src, Weight: 1})
		case 1: // duplicate
			edits = append(edits, e)
		case 2: // delete-then-add of the same pair
			edits = append(edits,
				dyngraph.Edit{Src: e.Src, Dst: e.Dst, Delete: true},
				dyngraph.Edit{Src: e.Src, Dst: e.Dst, Weight: 1, Time: e.Time})
		}
	}
	return edits
}

func l1(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// runSequence drives one edit-mode sequence, advancing states either every
// batch (advanceEvery=1) or over multi-batch windows.
func runSequence(t *testing.T, directed bool, mode editMode, seed int64, advanceEvery int) {
	t.Helper()
	const (
		n         = 200
		steps     = 10
		batchSize = 50
	)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	opt := kernels.DefaultPageRankOptions()

	dyn := dyngraph.New(n, directed)
	snap := dyn.Snapshot()
	wcc := NewWCCState(n)
	pr := NewPRState(n, opt)
	deg := NewDegreeState(n)

	var version int64
	var window []Batch
	for step := 0; step < steps; step++ {
		df := mode.deleteFrac
		if step < mode.warmSteps {
			df = 0
		}
		edits := randomBatch(rng, n, batchSize, df)
		res := dyn.ApplyEdits(edits)
		version++
		window = append(window, Batch{Version: version, Edits: edits, HadDeletes: res.Deleted > 0})

		// The CSR delta patch is maintained every batch regardless of the
		// advance cadence, like the serving layer does.
		snap = dyn.SnapshotDelta(snap, TouchedVertices(window[len(window)-1:], n))
		if full := dyn.Snapshot(); !snap.Equal(full) {
			t.Fatalf("step %d: SnapshotDelta diverged from full snapshot", step)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("step %d: patched snapshot invalid: %v", step, err)
		}

		if (step+1)%advanceEvery != 0 && step != steps-1 {
			continue
		}

		ccGot, err := wcc.Advance(ctx, snap, version, window)
		if err != nil {
			t.Fatalf("step %d: wcc advance: %v", step, err)
		}
		ccWant := kernels.WCC(snap)
		if !reflect.DeepEqual(ccGot, ccWant) {
			t.Fatalf("step %d: incremental WCC != full recompute (%d vs %d components)",
				step, ccGot.NumComponents, ccWant.NumComponents)
		}

		rankGot, _, err := pr.Advance(ctx, snap, version, window)
		if err != nil {
			t.Fatalf("step %d: pagerank advance: %v", step, err)
		}
		rankWant, _ := kernels.PageRank(snap, opt)
		if d := l1(rankGot, rankWant); d > prCmpTol {
			t.Fatalf("step %d: incremental PageRank L1 distance %.3g > %.3g", step, d, prCmpTol)
		}

		degGot, err := deg.Advance(ctx, snap, version, window)
		if err != nil {
			t.Fatalf("step %d: degree advance: %v", step, err)
		}
		const k = 10
		tkGot := kernels.TopKByScore(degGot, k)
		tkWant := kernels.TopKByDegree(snap, k)
		if !reflect.DeepEqual(tkGot, tkWant) {
			t.Fatalf("step %d: incremental top-%d by degree != full recompute:\n got %v\nwant %v",
				step, k, tkGot, tkWant)
		}

		window = window[:0]
	}
}

func TestDiffIncrementalMaintenance(t *testing.T) {
	for _, mode := range editModes {
		for seed := int64(1); seed <= 3; seed++ {
			for _, w := range diffWorkers {
				t.Run(fmt.Sprintf("%s/seed=%d/workers=%d", mode.name, seed, w), func(t *testing.T) {
					withWorkers(t, w, func() { runSequence(t, false, mode, seed, 1) })
				})
			}
		}
	}
}

// Multi-batch windows exercise the contiguity contract and delete handling
// across several versions per advance, the shape the serving layer produces
// when queries lag ingest.
func TestDiffIncrementalMultiBatch(t *testing.T) {
	for _, mode := range editModes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode.name, seed), func(t *testing.T) {
				runSequence(t, false, mode, seed, 3)
			})
		}
	}
}

func TestDiffIncrementalDirected(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSequence(t, true, editMode{name: "mixed", deleteFrac: 0.25, warmSteps: 1}, seed, 1)
		})
	}
}

// A cancelled advance must leave the state untouched (commit-on-success),
// so the serving layer's fallback recompute path never sees half-applied
// state.
func TestIncrAdvanceCancelledLeavesStateUnchanged(t *testing.T) {
	const n = 64
	dyn := dyngraph.New(n, false)
	edits := randomBatch(rand.New(rand.NewSource(7)), n, 40, 0)
	res := dyn.ApplyEdits(edits)
	snap := dyn.Snapshot()
	batches := []Batch{{Version: 1, Edits: edits, HadDeletes: res.Deleted > 0}}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	wcc := NewWCCState(n)
	if _, err := wcc.Advance(cancelled, snap, 1, batches); err == nil {
		t.Fatal("wcc advance with cancelled ctx succeeded")
	}
	if wcc.Version() != 0 {
		t.Fatalf("wcc state advanced to %d after cancellation", wcc.Version())
	}
	pr := NewPRState(n, kernels.DefaultPageRankOptions())
	if _, _, err := pr.Advance(cancelled, snap, 1, batches); err == nil {
		t.Fatal("pagerank advance with cancelled ctx succeeded")
	}
	if pr.Version() != 0 {
		t.Fatalf("pagerank state advanced to %d after cancellation", pr.Version())
	}
	deg := NewDegreeState(n)
	if _, err := deg.Advance(cancelled, snap, 1, batches); err == nil {
		t.Fatal("degree advance with cancelled ctx succeeded")
	}
	if deg.Version() != 0 {
		t.Fatalf("degree state advanced to %d after cancellation", deg.Version())
	}

	// And after the failed attempts, the same advances succeed untainted.
	ctx := context.Background()
	ccGot, err := wcc.Advance(ctx, snap, 1, batches)
	if err != nil {
		t.Fatalf("wcc advance: %v", err)
	}
	if want := kernels.WCC(snap); !reflect.DeepEqual(ccGot, want) {
		t.Fatal("wcc advance after cancellation diverged from full recompute")
	}
}

// Advancing over a non-contiguous or misaligned batch window must fail:
// silently skipping versions is how incremental state would drift.
func TestIncrAdvanceRejectsBatchGaps(t *testing.T) {
	const n = 8
	dyn := dyngraph.New(n, false)
	e1 := []dyngraph.Edit{{Src: 0, Dst: 1, Weight: 1}}
	dyn.ApplyEdits(e1)
	snap := dyn.Snapshot()
	ctx := context.Background()

	wcc := NewWCCState(n)
	if _, err := wcc.Advance(ctx, snap, 2, []Batch{{Version: 2, Edits: e1}}); err == nil {
		t.Fatal("advance over version gap succeeded")
	}
	if _, err := wcc.Advance(ctx, snap, 2, []Batch{{Version: 1, Edits: e1}}); err == nil {
		t.Fatal("advance with window short of target succeeded")
	}
	if _, err := wcc.Advance(ctx, snap, 1, []Batch{{Version: 1, Edits: e1}, {Version: 2, Edits: nil}}); err == nil {
		t.Fatal("advance with window past target succeeded")
	}
	if wcc.Version() != 0 {
		t.Fatalf("state moved to %d on rejected advances", wcc.Version())
	}
}
