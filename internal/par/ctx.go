package par

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Context-aware scheduler variants for long-running kernels that serve
// request traffic (internal/server). Cancellation is observed at chunk
// boundaries: each worker checks ctx.Done() — and, when the context
// carries a deadline, compares time.Now() against it directly (CtxErr) —
// before pulling its next chunk, so after cancellation no worker executes
// more than the single chunk it already held. That bounds deadline
// overshoot to one chunk per worker — the property the graphd deadline
// tests assert via the scheduler counters below
// (Totals.Cancellations / Totals.SkippedChunks).
//
// The determinism contract is unchanged: chunk boundaries still depend only
// on n and Opt.Grain, so a run that completes produces output
// byte-identical to the non-ctx primitive for any worker count. A run that
// is cancelled returns ctx.Err() and its partial side effects must be
// discarded by the caller.

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

// runCtx is the cancellable scheduler core: identical chunking to run, plus
// a cancellation check (Done() select + direct deadline comparison, see
// CtxErr) before every chunk pull. Returns nil when every chunk executed
// (even if ctx fired during the final chunk — the work is done), the
// cancellation error otherwise.
func runCtx(ctx context.Context, n int, opt Opt, body func(w, lo, hi int)) error {
	if n <= 0 {
		return CtxErr(ctx)
	}
	if err := CtxErr(ctx); err != nil {
		m := metricsFor(opt.Name)
		m.observeCancel(n, (n+grainFor(n, opt.Grain)-1)/grainFor(n, opt.Grain), 0, 0, 0)
		return err
	}
	grain := grainFor(n, opt.Grain)
	nc := (n + grain - 1) / grain
	workers := opt.WorkerCount()
	if workers > nc {
		workers = nc
	}
	m := metricsFor(opt.Name)
	sp := spanForInvocation(ctx, opt)
	start := time.Now()
	stop := stopSignal{done: ctx.Done()}
	stop.dl, stop.hasDL = ctx.Deadline()

	if workers <= 1 {
		executed := 0
		for c := 0; c < nc; c++ {
			if stop.expired() {
				m.observeCancel(n, nc, executed, 1, time.Since(start))
				endInvocationSpan(sp, nc, executed, 1, true)
				return CtxErr(ctx)
			}
			lo := c * grain
			body(0, lo, min(lo+grain, n))
			executed++
		}
		m.observe(n, nc, 1, time.Since(start), 1)
		endInvocationSpan(sp, nc, nc, 1, false)
		return nil
	}

	f := &fanout{stopSignal: stop, n: n, grain: grain, nc: nc, body: body}
	f.busy = f.inline[:0]
	if workers > len(f.inline) {
		f.busy = make([]time.Duration, 0, workers)
	}
	f.busy = f.busy[:workers]
	f.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go f.work(w)
	}
	f.wg.Wait()

	ex := int(f.executed.Load())
	if f.cancelled.Load() && ex < nc {
		m.observeCancel(n, nc, ex, workers, time.Since(start))
		endInvocationSpan(sp, nc, ex, workers, true)
		return CtxErr(ctx)
	}
	var maxBusy, totalBusy time.Duration
	for _, d := range f.busy {
		totalBusy += d
		maxBusy = max(maxBusy, d)
	}
	imbalance := 1.0
	if totalBusy > 0 {
		imbalance = float64(maxBusy) * float64(workers) / float64(totalBusy)
	}
	m.observe(n, nc, workers, time.Since(start), imbalance)
	endInvocationSpan(sp, nc, nc, workers, false)
	return nil
}

// stopSignal is a context's cancellation signals, read once per invocation
// and checked before every chunk pull.
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

// fanout is what one multi-worker runCtx invocation shares with its
// workers, in a single allocation: per-invocation garbage is this plus one
// small closure per worker goroutine, so kernels that run many short
// invocations (incremental PageRank sweeps) stay cheap. busy holds each
// worker's time at work, written once when it finishes.
type fanout struct {
	stopSignal
	n, grain, nc     int
	body             func(w, lo, hi int)
	cursor, executed atomic.Int64
	cancelled        atomic.Bool
	wg               sync.WaitGroup
	busy             []time.Duration
	inline           [8]time.Duration
}

// work is one worker: pull chunks until they run out or the context ends.
func (f *fanout) work(w int) {
	defer f.wg.Done()
	t0 := time.Now()
	for {
		if f.expired() {
			f.cancelled.Store(true)
			break
		}
		c := int(f.cursor.Add(1) - 1)
		if c >= f.nc {
			break
		}
		lo := c * f.grain
		f.body(w, lo, min(lo+f.grain, f.n))
		f.executed.Add(1)
	}
	f.busy[w] = time.Since(t0)
}

// ForCtx is For with cooperative cancellation: body still runs over
// disjoint subranges covering [0, n), but workers stop pulling chunks once
// ctx is done. Returns nil when all chunks executed, ctx.Err() after a
// cancellation that skipped work. Partial side effects of a cancelled run
// are the caller's to discard.
func ForCtx(ctx context.Context, n int, opt Opt, body func(lo, hi int)) error {
	return runCtx(ctx, n, opt, func(_, lo, hi int) { body(lo, hi) })
}

// ForWCtx is ForW with cooperative cancellation (see ForCtx).
func ForWCtx(ctx context.Context, n int, opt Opt, body func(w, lo, hi int)) error {
	return runCtx(ctx, n, opt, body)
}

// ChunksCtx is Chunks with cooperative cancellation. A completed run
// returns the per-chunk results in chunk-index order, byte-identical to
// Chunks for any worker count; a cancelled run returns (nil, ctx.Err()).
func ChunksCtx[T any](ctx context.Context, n int, opt Opt, body func(chunk, lo, hi int) T) ([]T, error) {
	if n <= 0 {
		return nil, CtxErr(ctx)
	}
	grain := grainFor(n, opt.Grain)
	out := make([]T, (n+grain-1)/grain)
	err := runCtx(ctx, n, opt, func(_, lo, hi int) {
		out[lo/grain] = body(lo/grain, lo, hi)
	})
	if err != nil {
		return nil, err
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
