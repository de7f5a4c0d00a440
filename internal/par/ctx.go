package par

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The scheduler core, with cooperative cancellation for the kernels that
// serve request traffic (internal/server). Cancellation is observed at chunk
// boundaries: each worker checks ctx.Done() — and, when the context
// carries a deadline, compares time.Now() against it directly (CtxErr) —
// before pulling its next chunk, so after cancellation no worker executes
// more than the single chunk it already held. That bounds deadline
// overshoot to one chunk per worker — the property the graphd deadline
// tests assert via the scheduler counters below
// (Totals.Cancellations / Totals.SkippedChunks).
//
// The plain primitives (For, ForW, Chunks, Reduce) are these under
// context.Background(), so there is one core and one determinism contract:
// chunk boundaries depend only on n and Opt.Grain, so a run that completes
// produces the same output for any worker count. A run that is cancelled
// returns ctx.Err() and its partial side effects must be discarded by the
// caller.

// CtxErr reports ctx's effective cancellation state. Unlike ctx.Err() it
// also treats a context whose deadline has passed as expired even when the
// runtime has not yet serviced the context's timer: on a GOMAXPROCS=1 host
// a busy kernel goroutine can hold the only P past the deadline without
// the timer goroutine ever running, leaving Done() open while the deadline
// is long gone. Cooperative checks in this package and in the kernels' ctx
// variants use this instead of ctx.Err() so deadline enforcement does not
// depend on the scheduler preempting the very work being cancelled.
func CtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// spanForInvocation opens a child span for one scheduler invocation when
// the context carries a request span (telemetry.SpanFromContext), so a
// traced request's tree shows every kernel loop it ran. Untraced contexts
// (the common case, and every non-ctx call) pay one allocation-free
// ctx.Value lookup and nothing else.
func spanForInvocation(ctx context.Context, opt Opt) *telemetry.Span {
	parent := telemetry.SpanFromContext(ctx)
	if parent == nil {
		return nil
	}
	name := opt.Name
	if name == "" {
		name = "unnamed"
	}
	return parent.Child("par." + name)
}

// endInvocationSpan closes an invocation span with the scheduler's verdict.
func endInvocationSpan(sp *telemetry.Span, nc, executed, workers int, cancelled bool) {
	if sp == nil {
		return
	}
	sp.SetAttr("chunks", strconv.Itoa(executed))
	if cancelled {
		sp.SetAttr("cancelled", "true")
		sp.SetAttr("chunks_skipped", strconv.Itoa(nc-executed))
	}
	sp.SetAttr("workers", strconv.Itoa(workers))
	sp.End()
}

// runCtx is the scheduler core every primitive runs on: split [0,n) into
// chunks of size grain, let workers pull chunks off an atomic cursor, check
// for cancellation (Done() select + direct deadline comparison, see CtxErr)
// before every pull, record telemetry. body receives the pulling worker's id
// in [0, workers) plus the chunk bounds. Returns nil when every chunk
// executed (even if ctx fired during the final chunk — the work is done),
// the cancellation error otherwise.
func runCtx(ctx context.Context, n int, opt Opt, body func(w, lo, hi int)) error {
	if n <= 0 {
		return CtxErr(ctx)
	}
	grain := grainFor(n, opt.Grain)
	nc := (n + grain - 1) / grain
	m := metricsFor(opt.Name)
	if err := CtxErr(ctx); err != nil {
		m.observeCancel(n, nc, 0, 0, 0)
		return err
	}
	workers := min(opt.WorkerCount(), nc)
	sp := spanForInvocation(ctx, opt)
	start := time.Now()
	stop := stopSignal{done: ctx.Done()}
	stop.dl, stop.hasDL = ctx.Deadline()

	executed, imbalance := 0, 1.0
	if workers <= 1 {
		workers = 1
		executed = runInline(n, grain, &stop, func(lo, hi int) { body(0, lo, hi) })
	} else {
		executed, imbalance = fanOut(stop, n, grain, nc, workers, body)
	}
	if executed < nc {
		m.observeCancel(n, nc, executed, workers, time.Since(start))
		endInvocationSpan(sp, nc, executed, workers, true)
		return CtxErr(ctx)
	}
	m.observe(n, nc, workers, time.Since(start), imbalance)
	endInvocationSpan(sp, nc, nc, workers, false)
	return nil
}

// stopSignal is a context's cancellation signals, read once per invocation
// and checked before every chunk pull. The zero value never expires.
type stopSignal struct {
	done  <-chan struct{}
	dl    time.Time
	hasDL bool
}

// expired reports whether the context is done or past its deadline.
func (s *stopSignal) expired() bool {
	select {
	case <-s.done:
		return true
	default:
	}
	return s.hasDL && !time.Now().Before(s.dl)
}

// fanout is what one multi-worker invocation shares with its workers, in a
// single allocation: per-invocation garbage is this plus the one method
// value every worker goroutine starts from, so kernels that run many short
// invocations (PageRank iterations, incremental sweeps) stay cheap. Each
// worker adds its time at work to busy and raises busyMax to it when it
// finishes.
type fanout struct {
	stopSignal
	n, grain, nc     int
	body             func(w, lo, hi int)
	cursor, executed atomic.Int64
	ids              atomic.Int32
	busy, busyMax    atomic.Int64
	wg               sync.WaitGroup
}

// fanOut runs every chunk on workers goroutines and returns the chunks
// executed and the load imbalance (max worker busy time over the mean).
func fanOut(stop stopSignal, n, grain, nc, workers int, body func(w, lo, hi int)) (int, float64) {
	f := &fanout{stopSignal: stop, n: n, grain: grain, nc: nc, body: body}
	f.wg.Add(workers)
	work := f.work
	for w := 0; w < workers; w++ {
		go work()
	}
	f.wg.Wait()
	imbalance := 1.0
	if total := f.busy.Load(); total > 0 {
		imbalance = float64(f.busyMax.Load()) * float64(workers) / float64(total)
	}
	return int(f.executed.Load()), imbalance
}

// work is one worker: take the next id, then pull chunks until they run out
// or the context ends.
func (f *fanout) work() {
	defer f.wg.Done()
	w := int(f.ids.Add(1) - 1)
	t0 := time.Now()
	for !f.expired() {
		c := int(f.cursor.Add(1) - 1)
		if c >= f.nc {
			break
		}
		lo := c * f.grain
		f.body(w, lo, min(lo+f.grain, f.n))
		f.executed.Add(1)
	}
	d := int64(time.Since(t0))
	f.busy.Add(d)
	for m := f.busyMax.Load(); d > m && !f.busyMax.CompareAndSwap(m, d); m = f.busyMax.Load() {
	}
}

// ForCtx is For with cooperative cancellation: body still runs over
// disjoint subranges covering [0, n), but workers stop pulling chunks once
// ctx is done. Returns nil when all chunks executed, ctx.Err() after a
// cancellation that skipped work. Partial side effects of a cancelled run
// are the caller's to discard.
func ForCtx(ctx context.Context, n int, opt Opt, body func(lo, hi int)) error {
	return runCtx(ctx, n, opt, func(_, lo, hi int) { body(lo, hi) })
}

// ChunksCtx is Chunks with cooperative cancellation. A completed run
// returns the per-chunk results in chunk-index order, byte-identical to
// Chunks for any worker count; a cancelled run returns (nil, ctx.Err()).
func ChunksCtx[T any](ctx context.Context, n int, opt Opt, body func(chunk, lo, hi int) T) ([]T, error) {
	return AppendChunksCtx(ctx, nil, n, opt, body)
}

// AppendChunksCtx is ChunksCtx appending the per-chunk results to dst,
// which it grows as needed: a kernel that runs pass after pass hands back
// the slice the previous pass returned (resliced to [:0]) and allocates
// its partials once. A cancelled run returns dst as it was passed.
func AppendChunksCtx[T any](ctx context.Context, dst []T, n int, opt Opt, body func(chunk, lo, hi int) T) ([]T, error) {
	if n <= 0 {
		return dst, CtxErr(ctx)
	}
	grain := grainFor(n, opt.Grain)
	base, nc := len(dst), (n+grain-1)/grain
	out := dst
	if cap(dst)-base < nc {
		out = make([]T, base, base+nc)
		copy(out, dst)
	}
	out = out[:base+nc]
	if err := runCtx(ctx, n, opt, func(_, lo, hi int) {
		out[base+lo/grain] = body(lo/grain, lo, hi)
	}); err != nil {
		return dst, err
	}
	return out, nil
}

// ReduceCtx is Reduce with cooperative cancellation: partials still fold in
// chunk-index order, so a completed run is byte-identical to Reduce. A
// cancelled run returns (zero T, ctx.Err()).
func ReduceCtx[T any](ctx context.Context, n int, opt Opt, leaf func(lo, hi int) T, combine func(acc, next T) T) (T, error) {
	var zero T
	parts, err := ChunksCtx(ctx, n, opt, func(_, lo, hi int) T { return leaf(lo, hi) })
	if err != nil {
		return zero, err
	}
	if len(parts) == 0 {
		return zero, nil
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = combine(acc, p)
	}
	return acc, nil
}
