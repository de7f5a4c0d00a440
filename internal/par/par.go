package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxChunks bounds how many chunks an auto-grained invocation is split
// into. It is deliberately independent of the worker count: 256 chunks keep
// at least ~32 chunks per worker on an 8-way machine (good balance under
// skew) while keeping per-chunk scheduling overhead at one atomic add.
const maxChunks = 256

// defaultWorkers holds the process-wide worker count; 0 means "resolve to
// runtime.GOMAXPROCS at use time" so late GOMAXPROCS changes are honored.
var defaultWorkers atomic.Int32

// DefaultWorkers returns the process-wide worker count used when
// Opt.Workers is zero.
func DefaultWorkers() int {
	if w := defaultWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefaultWorkers sets the process-wide worker count. n <= 0 restores the
// GOMAXPROCS default. Safe for concurrent use; in-flight invocations keep
// the count they resolved at entry.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Opt configures one scheduler invocation. The zero value is valid: default
// workers, auto grain, anonymous telemetry.
type Opt struct {
	// Workers overrides the worker count for this invocation; <= 0 uses
	// DefaultWorkers().
	Workers int
	// Grain is the chunk size in indices; <= 0 derives ceil(n/256) from n
	// alone. Set it explicitly when per-chunk state is expensive (e.g.
	// Brandes partial vectors) to bound the chunk count, or to 1 when tasks
	// are very uneven (e.g. one Dijkstra per chunk). Grain must not be
	// derived from the worker count, or per-chunk reductions lose their
	// worker-count independence.
	Grain int
	// Name labels this call site's telemetry ("bfs.topdown", "spgemm.rows").
	// Empty reports under "unnamed".
	Name string
}

// WorkerCount resolves the worker count this Opt would run with (before
// clamping to the chunk count). ForW callers size per-worker scratch with
// it.
func (o Opt) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return DefaultWorkers()
}

// grainFor derives the chunk size: explicit Grain wins, otherwise
// ceil(n/maxChunks), at least 1. Depends only on n — never on workers.
func grainFor(n, grain int) int {
	if grain > 0 {
		return grain
	}
	g := (n + maxChunks - 1) / maxChunks
	if g < 1 {
		g = 1
	}
	return g
}

// run is the scheduler core: split [0,n) into chunks of size grain, let
// workers pull chunks off an atomic cursor, record telemetry. body receives
// the pulling worker's id in [0, workers) plus the chunk bounds.
func run(n int, opt Opt, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	grain := grainFor(n, opt.Grain)
	nc := (n + grain - 1) / grain
	workers := opt.WorkerCount()
	if workers > nc {
		workers = nc
	}
	m := metricsFor(opt.Name)
	if workers <= 1 {
		runInline(n, grain, m, func(lo, hi int) { body(0, lo, hi) })
		return
	}
	start := time.Now()

	var cursor atomic.Int64
	// busy is padded to a cache line per worker so the per-chunk timestamp
	// writes don't false-share.
	busy := make([]struct {
		d time.Duration
		_ [7]int64
	}, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t0 := time.Now()
			for {
				c := int(cursor.Add(1) - 1)
				if c >= nc {
					break
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
			busy[w].d = time.Since(t0)
		}(w)
	}
	wg.Wait()

	var maxBusy, totalBusy time.Duration
	for w := 0; w < workers; w++ {
		totalBusy += busy[w].d
		if busy[w].d > maxBusy {
			maxBusy = busy[w].d
		}
	}
	imbalance := 1.0
	if totalBusy > 0 {
		imbalance = float64(maxBusy) * float64(workers) / float64(totalBusy)
	}
	m.observe(n, nc, workers, time.Since(start), imbalance)
}

// runInline is the one-worker schedule: every chunk on the calling
// goroutine, in index order. body does not escape, so a caller's closure and
// what it captures stay on the stack.
func runInline(n, grain int, m *opMetrics, body func(lo, hi int)) {
	start := time.Now()
	for lo := 0; lo < n; lo += grain {
		body(lo, min(lo+grain, n))
	}
	m.observe(n, (n+grain-1)/grain, 1, time.Since(start), 1)
}

// For runs body over disjoint subranges covering [0, n). body must only
// touch state owned by its range (or synchronize itself); ranges execute
// concurrently in unspecified order.
func For(n int, opt Opt, body func(lo, hi int)) {
	run(n, opt, func(_, lo, hi int) { body(lo, hi) })
}

// ForW is For with the pulling worker's id (in [0, Opt.WorkerCount())), for
// bodies that keep per-worker scratch. Chunk-to-worker assignment is
// nondeterministic: anything that affects the final output must not depend
// on w — index it by chunk (see Chunks) instead.
func ForW(n int, opt Opt, body func(w, lo, hi int)) {
	run(n, opt, body)
}

// Chunks runs body once per chunk and returns the per-chunk results in
// chunk-index order. Because chunk boundaries depend only on n and
// Opt.Grain, the result slice is identical for every worker count — the
// deterministic building block for frontier collection and ordered
// reductions.
func Chunks[T any](n int, opt Opt, body func(chunk, lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	grain := grainFor(n, opt.Grain)
	out := make([]T, (n+grain-1)/grain)
	run(n, opt, func(_, lo, hi int) {
		out[lo/grain] = body(lo/grain, lo, hi)
	})
	return out
}

// Map computes out[i] = f(i) for i in [0, n) in parallel.
func Map[T any](n int, opt Opt, f func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	For(n, opt, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(i)
		}
	})
	return out
}

// Reduce folds leaf results over [0, n): leaf(lo, hi) computes one chunk's
// partial, combine folds partials in chunk-index order. combine must be
// associative; it need not be commutative, and floating-point partials
// reduce byte-identically for every worker count. Returns the zero T when
// n <= 0.
func Reduce[T any](n int, opt Opt, leaf func(lo, hi int) T, combine func(acc, next T) T) T {
	var zero T
	parts := Chunks(n, opt, func(_, lo, hi int) T { return leaf(lo, hi) })
	if len(parts) == 0 {
		return zero
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = combine(acc, p)
	}
	return acc
}
