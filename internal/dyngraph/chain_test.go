package dyngraph

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestOldSnapshotsSurviveLaterBumps holds the first versions of a snapshot
// chain while fifty more bumps append to the shared arena and replace it,
// with reader goroutines re-checking every held version against the oracle
// recorded when it was taken the whole time. Run under -race this is the
// proof that a bump writes no memory an older version reads.
func TestOldSnapshotsSurviveLaterBumps(t *testing.T) {
	const n, held, later, readers = 64, 8, 50, 4
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(18))
		g := New(n, directed)
		model := modelCSR{}
		warm, _ := randomEditBatch(rng, n, 600, 0)
		g.ApplyEdits(warm)
		model.apply(directed, warm)

		chain := g.Snapshot()
		patches, compactions := 0, 0
		bump := func() {
			edits, touched := randomEditBatch(rng, n, 6, 0.3)
			g.ApplyEdits(edits)
			model.apply(directed, edits)
			next := g.SnapshotDelta(chain, touched)
			if shared, ok := inPlace(chain, next, touched); ok && shared {
				patches++
			} else if ok {
				compactions++
			}
			chain = next
		}
		type version struct{ got, want *graph.Graph }
		var versions []version
		for i := 0; i < held; i++ {
			bump()
			versions = append(versions, version{chain, model.snapshot(t, n, directed)})
		}
		verify := func(fail func(format string, args ...any)) {
			for i, v := range versions {
				if err := v.got.Validate(); err != nil {
					fail("directed=%v: held version %d invalid: %v", directed, i+1, err)
				}
				if !v.got.Equal(v.want) {
					fail("directed=%v: held version %d no longer equals its oracle", directed, i+1)
				}
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					verify(t.Errorf)
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		for i := 0; i < later; i++ {
			bump()
		}
		close(stop)
		wg.Wait()
		verify(t.Fatalf)
		if patches < later/2 || compactions < 2 {
			t.Fatalf("directed=%v: %d in-place patches and %d fresh emits; the bumps should both append and compact", directed, patches, compactions)
		}
	}
}

// TestRecycledChainReusesReleasedVersions runs a chain through
// SnapshotDeltaRecycled the way the server's writer does: it holds the
// newest few versions, releases each one as it falls out of the window, and
// re-checks every held version against its oracle after every bump — so a
// bump that reused storage a held version reads (row index or arena) fails,
// all the more as released storage is poisoned under go test. The churn
// deletes the oldest edges it inserted, so the graph keeps its size; once
// the spare arena and free row indexes exist, a bump allocates a small
// fraction of the row index a bump without recycling allocates.
func TestRecycledChainReusesReleasedVersions(t *testing.T) {
	const n, held, bumps, perBump = 512, 3, 160, 24
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(21))
		g := New(n, directed)
		model := modelCSR{}
		var live []Edit // inserted edges, oldest first
		churn := func(inserts, deletes int) ([]Edit, []int32) {
			var edits []Edit
			var touched []int32
			for i := 0; i < inserts+deletes; i++ {
				var e Edit
				if i < deletes {
					e, live = live[0], live[1:]
					e.Delete = true
				} else {
					e = Edit{Src: rng.Int31n(n), Dst: rng.Int31n(n), Weight: 1, Time: int64(i)}
					live = append(live, e)
				}
				edits = append(edits, e)
				touched = append(touched, e.Src, e.Dst)
			}
			g.ApplyEdits(edits)
			model.apply(directed, edits)
			slices.Sort(touched)
			return edits, slices.Compact(touched)
		}
		churn(8*n, 0)

		var r graph.Recycler
		type version struct{ got, want *graph.Graph }
		window := []version{{g.SnapshotDeltaRecycled(nil, nil, &r), model.snapshot(t, n, directed)}}
		var ms runtime.MemStats
		var spent uint64
		for i := 0; i < bumps; i++ {
			_, touched := churn(perBump/2, perBump/2)
			want := model.snapshot(t, n, directed)
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			next := g.SnapshotDeltaRecycled(window[len(window)-1].got, touched, &r)
			runtime.ReadMemStats(&ms)
			if i >= bumps/2 {
				spent += ms.TotalAlloc - before
			}
			window = append(window, version{next, want})
			if len(window) > held {
				r.Release(window[0].got)
				window = window[1:]
			}
			for j, v := range window {
				if err := v.got.Validate(); err != nil {
					t.Fatalf("directed=%v bump %d: held version %d invalid: %v", directed, i, j, err)
				}
				if !v.got.Equal(v.want) {
					t.Fatalf("directed=%v bump %d: held version %d != its oracle", directed, i, j)
				}
			}
		}
		perBump, index := spent/(bumps/2), uint64(16*n)
		t.Logf("directed=%v: %d B per bump over the last %d bumps (a row index is %d B)", directed, perBump, bumps/2, index)
		if perBump > index/4 {
			t.Errorf("directed=%v: %d B per bump, want under a quarter of the %d B row index", directed, perBump, index)
		}
	}
}

// TestPatchFromStalePrevFallsBack: of two SnapshotDelta calls from the same
// prev the first extends prev's arena and the second, finding the tail
// moved, must emit into a fresh one — both correct, neither disturbing the
// other or prev — and each is then the head of its own chain.
func TestPatchFromStalePrevFallsBack(t *testing.T) {
	const n = 64
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		g := New(n, directed)
		model := modelCSR{}
		step := func(size int) []int32 {
			edits, touched := randomEditBatch(rng, n, size, 0.3)
			g.ApplyEdits(edits)
			model.apply(directed, edits)
			return touched
		}
		union := func(a, b []int32) []int32 {
			u := append(slices.Clone(a), b...)
			slices.Sort(u)
			return slices.Compact(u)
		}
		prev, prevWant := g.SnapshotDelta(g.Snapshot(), step(600)), model.snapshot(t, n, directed)

		t1 := step(6)
		first, firstWant := g.SnapshotDelta(prev, t1), model.snapshot(t, n, directed)
		if shared, ok := inPlace(prev, first, t1); !ok || !shared {
			t.Fatalf("directed=%v: the first patch from the head of a new chain should extend its arena", directed)
		}
		t2 := union(t1, step(6))
		second, secondWant := g.SnapshotDelta(prev, t2), model.snapshot(t, n, directed)
		if shared, ok := inPlace(prev, second, t2); !ok || shared {
			t.Fatalf("directed=%v: a second patch from the same prev must not extend its arena", directed)
		}
		t3 := step(6)
		third, thirdWant := g.SnapshotDelta(second, t3), model.snapshot(t, n, directed)
		fromFirst := g.SnapshotDelta(first, union(t2, t3))

		for _, c := range []struct {
			name      string
			got, want *graph.Graph
		}{
			{"prev", prev, prevWant}, {"first patch", first, firstWant}, {"second patch", second, secondWant},
			{"patch of the second", third, thirdWant}, {"later patch of the first", fromFirst, thirdWant},
		} {
			if err := c.got.Validate(); err != nil {
				t.Fatalf("directed=%v: %s invalid: %v", directed, c.name, err)
			}
			if !c.got.Equal(c.want) {
				t.Fatalf("directed=%v: %s != model", directed, c.name)
			}
		}
	}
}

// TestSnapshotChainAllocBudget pins what a version bump allocates at the
// serve-churn shape (R-MAT s15 ef16, 200-edit batches, a quarter deletes),
// over 512 bumps: well under the 16 B per arc a copy-everything patch costs,
// flat from the first arena replacement to the last, and bounded in space.
func TestSnapshotChainAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("s15 graph, 512 bumps")
	}
	const scale, perBatch, bumps, window = 15, 200, 512, 128
	g := FromCSRGraph(gen.RMAT(scale, 16, gen.Graph500RMAT, 1, false))
	updates := gen.EdgeUpdateStream(scale, bumps*perBatch, 0.25, 2)

	var ms runtime.MemStats
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	base := heapInuse() // the dynamic rows and the update stream
	chain := g.Snapshot()
	arcBytes := 16 * chain.NumEdges()

	perBump := make([]float64, bumps) // bytes allocated by the i-th SnapshotDelta
	var total, touchedArcs int64
	firstFresh := -1
	for i := 0; i < bumps; i++ {
		batch := updates[i*perBatch : (i+1)*perBatch]
		g.ApplyEdits(batch)
		touched := make([]int32, 0, 2*perBatch)
		for _, u := range batch {
			touched = append(touched, u.Src, u.Dst)
		}
		slices.Sort(touched)
		touched = slices.Compact(touched)

		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		next := g.SnapshotDelta(chain, touched)
		runtime.ReadMemStats(&ms)
		spent := int64(ms.TotalAlloc - before)

		total += spent
		perBump[i] = float64(spent)
		for _, v := range touched {
			touchedArcs += int64(next.Degree(v))
		}
		if shared, ok := inPlace(chain, next, touched); firstFresh < 0 && ok && !shared {
			firstFresh = i
		}
		chain = next
	}
	if !chain.Equal(g.Snapshot()) {
		t.Fatal("the chain's last link != Snapshot()")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}

	perCall := total / bumps
	t.Logf("SnapshotDelta allocates %d KiB per bump (%.1f%% of the %d KiB of arcs), touching %d k arcs; first arena replacement at bump %d",
		perCall>>10, 100*float64(perCall)/float64(arcBytes), arcBytes>>10, touchedArcs/bumps/1000, firstFresh)
	if perCall > arcBytes/2 {
		t.Errorf("mean allocation per bump %d B > half the arc bytes %d B", perCall, arcBytes/2)
	}
	if firstFresh < 0 || firstFresh+window > bumps-window {
		t.Fatalf("first arena replacement at bump %d leaves no two disjoint %d-bump windows", firstFresh, window)
	}
	early, late := mean(perBump[firstFresh:firstFresh+window]), mean(perBump[bumps-window:])
	t.Logf("mean allocation per bump: %.0f KiB over bumps %d-%d, %.0f KiB over the last %d (the graph grew %.1f%%)",
		early/1024, firstFresh, firstFresh+window, late/1024, window, 100*float64(16*chain.NumEdges()-arcBytes)/float64(arcBytes))
	if late > 1.1*early || late < 0.9*early {
		t.Errorf("per-bump allocation drifted: %.0f B early, %.0f B late", early, late)
	}
	grown := heapInuse() - base
	t.Logf("heap in use for the newest snapshot after GC: %d KiB (%.2fx the first snapshot's arcs)", grown>>10, float64(grown)/float64(arcBytes))
	if grown > uint64(3*arcBytes) {
		t.Errorf("heap in use for snapshots %d B > 3x the first snapshot's arc bytes %d B", grown, 3*arcBytes)
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(chain)
}
