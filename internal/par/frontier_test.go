package par

import (
	"slices"
	"testing"
)

// TestFrontierDrainsEveryElementOnce: whatever the worker count and grain,
// every element a round's chunks append comes back exactly once, and one
// Frontier with one pair of caller-held slices serves a hundred rounds.
func TestFrontierDrainsEveryElementOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		for _, grain := range []int{0, 1, 7, 1 << 20} {
			var f Frontier[int]
			var cur, next []int
			for round := 0; round < 100; round++ {
				n := (round*37)%500 + round%2 // small, large and empty rounds
				cur = cur[:0]
				for i := 0; i < n; i++ {
					cur = append(cur, round*1000+i)
				}
				// Index i emits i%3 copies of cur[i]: chunks that append
				// nothing, one element and several.
				next = f.Collect(next, n, Opt{Workers: w, Grain: grain, Name: "test.frontier"},
					func(out []int, lo, hi int) []int {
						for i := lo; i < hi; i++ {
							for c := 0; c < i%3; c++ {
								out = append(out, cur[i])
							}
						}
						return out
					})
				var want []int
				for i := 0; i < n; i++ {
					for c := 0; c < i%3; c++ {
						want = append(want, cur[i])
					}
				}
				got := slices.Clone(next)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("workers=%d grain=%d round %d: drained %d elements, want %d (each exactly once)",
						w, grain, round, len(got), len(want))
				}
				if w == 1 && !slices.Equal(next, want) {
					t.Fatalf("grain=%d round %d: one worker must drain in chunk order", grain, round)
				}
				for i := range f.bufs {
					if len(f.bufs[i].s) != 0 {
						t.Fatalf("workers=%d round %d: worker buffer %d not emptied by the drain", w, round, i)
					}
				}
			}
		}
	}
}

// TestFrontierReusesStorage: once the caller-held slices and the worker
// buffers have grown, further rounds of the same size allocate nothing per
// element — only the scheduler's per-invocation bookkeeping.
func TestFrontierReusesStorage(t *testing.T) {
	var f Frontier[int32]
	var next []int32
	round := func(workers int) {
		next = f.Collect(next, 4096, Opt{Workers: workers, Name: "test.frontier"},
			func(out []int32, lo, hi int) []int32 {
				for i := lo; i < hi; i++ {
					out = append(out, int32(i))
				}
				return out
			})
	}
	for _, w := range []int{1, 4} {
		round(w) // grow
		if avg := testing.AllocsPerRun(20, func() { round(w) }); avg > float64(8+4*w) {
			t.Errorf("workers=%d: %.0f allocations per warmed-up round, want O(workers)", w, avg)
		}
		if len(next) != 4096 {
			t.Fatalf("workers=%d: drained %d of 4096", w, len(next))
		}
	}
	if avg := testing.AllocsPerRun(20, func() { round(1) }); avg != 0 {
		t.Errorf("a one-worker round allocated %.0f times, want 0", avg)
	}
}
