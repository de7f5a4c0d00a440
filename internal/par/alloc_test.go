package par

import (
	"runtime"
	"testing"
)

// invocationCost is what one call of f allocates, averaged over runs calls
// after a warm-up that resolves the call site's telemetry handles and fills
// the runtime's free lists of exited goroutines.
func invocationCost(runs int, f func()) (bytes, mallocs float64) {
	for i := 0; i < 16; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestAllocBudgetParInvocation holds the scheduler's per-invocation
// bookkeeping to one shared fanout, the method value its workers start
// from and the For adapter: a multi-worker For costs at most workers+2
// mallocs and 256 B, and a Reduce adds no more than its 8-byte partial per
// chunk. Kernels that run a pass per iteration or per level pay this every
// pass.
func TestAllocBudgetParInvocation(t *testing.T) {
	const workers, n, runs = 2, 1 << 12, 2000
	opt := Opt{Workers: workers, Name: "test.budget"}
	nc := len(Chunks(n, opt, func(c, _, _ int) int { return c }))
	forB, forM := invocationCost(runs, func() { For(n, opt, func(lo, hi int) {}) })
	redB, redM := invocationCost(runs, func() {
		Reduce(n, opt, func(lo, hi int) float64 { return float64(hi - lo) },
			func(a, b float64) float64 { return a + b })
	})
	t.Logf("For    (%d workers): %6.1f B, %4.1f mallocs per invocation", workers, forB, forM)
	t.Logf("Reduce (%d workers, %d chunks): %6.1f B, %4.1f mallocs per invocation", workers, nc, redB, redM)
	if forM > workers+2 || forB > 256 {
		t.Errorf("For: %.1f B and %.1f mallocs per invocation, budget 256 B and %d mallocs", forB, forM, workers+2)
	}
	if budget := 256 + 8*float64(nc); redB > budget {
		t.Errorf("Reduce: %.1f B per invocation, budget %.0f B (For's 256 B plus 8 B a chunk)", redB, budget)
	}
}
