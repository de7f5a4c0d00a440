package par

import (
	"context"
	"runtime"
	"sync/atomic"
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

// runInline is the one-worker schedule: every chunk on the calling
// goroutine, in index order, until stop expires. It returns the chunks it
// ran. body does not escape, so a caller's closure and what it captures
// stay on the stack.
func runInline(n, grain int, stop *stopSignal, body func(lo, hi int)) int {
	executed := 0
	for lo := 0; lo < n; lo += grain {
		if stop.expired() {
			break
		}
		body(lo, min(lo+grain, n))
		executed++
	}
	return executed
}

// For runs body over disjoint subranges covering [0, n). body must only
// touch state owned by its range (or synchronize itself); ranges execute
// concurrently in unspecified order. It is ForCtx under
// context.Background().
func For(n int, opt Opt, body func(lo, hi int)) {
	_ = ForCtx(context.Background(), n, opt, body)
}

// ForW is For with the pulling worker's id (in [0, Opt.WorkerCount())), for
// bodies that keep per-worker scratch. Chunk-to-worker assignment is
// nondeterministic: anything that affects the final output must not depend
// on w — index it by chunk (see Chunks) instead.
func ForW(n int, opt Opt, body func(w, lo, hi int)) {
	_ = runCtx(context.Background(), n, opt, body)
}

// Chunks runs body once per chunk and returns the per-chunk results in
// chunk-index order. Because chunk boundaries depend only on n and
// Opt.Grain, the result slice is identical for every worker count — the
// deterministic building block for frontier collection and ordered
// reductions.
func Chunks[T any](n int, opt Opt, body func(chunk, lo, hi int) T) []T {
	out, _ := ChunksCtx(context.Background(), n, opt, body)
	return out
}

// Reduce folds leaf results over [0, n): leaf(lo, hi) computes one chunk's
// partial, combine folds partials in chunk-index order. combine must be
// associative; it need not be commutative, and floating-point partials
// reduce byte-identically for every worker count. Returns the zero T when
// n <= 0.
func Reduce[T any](n int, opt Opt, leaf func(lo, hi int) T, combine func(acc, next T) T) T {
	acc, _ := ReduceCtx(context.Background(), n, opt, leaf, combine)
	return acc
}
