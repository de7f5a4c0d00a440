package par

import (
	"sync"
	"time"
)

// Frontier collects what the chunks of a parallel pass produce — the next
// BFS level, the vertices a peel round freed, the vertices a relaxation
// improved — without allocating per chunk or per pass. Each worker appends
// a chunk's output to a buffer of its own, keyed by the worker id ForW
// passes, and flushes it into the slice the caller holds and hands back
// pass after pass, so a level-synchronous kernel allocates O(workers)
// buffers of one chunk's output each for its whole run. The zero value is
// ready to use.
//
// Flush order is chunk completion order: with more than one worker the
// collected elements arrive in an order that follows the schedule. Use a
// Frontier only where the kernel's output provably does not depend on that
// order (a CAS-min, a confluent or unique fixpoint, a deterministic
// post-pass); where it does, collect by chunk index with Chunks.
type Frontier[T any] struct {
	bufs []frontierBuf[T]
	mu   sync.Mutex // held while a worker flushes into dst
}

// frontierBuf pads a worker's slice header to a cache line of its own: the
// header is rewritten at every chunk boundary.
type frontierBuf[T any] struct {
	s []T
	_ [40]byte
}

// Collect runs body over [0, n) as ForW does. body appends what its range
// produces to out and returns the extended slice; Collect returns every
// appended element in dst[:0], which it grows as needed — pass the slice
// the previous Collect returned (or the one before it, when that one is
// the frontier being read) to reuse its storage, or one sized for the
// largest pass to allocate nothing. dst must not alias anything body reads.
func (f *Frontier[T]) Collect(dst []T, n int, opt Opt, body func(out []T, lo, hi int) []T) []T {
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	// Pin the worker count: bufs is sized for exactly these ids.
	opt.Workers = opt.WorkerCount()
	grain := grainFor(n, opt.Grain)
	if opt.Workers <= 1 || n <= grain {
		// One goroutine runs every chunk, in order: append in place.
		start := time.Now()
		nc := runInline(n, grain, &stopSignal{}, func(lo, hi int) { dst = body(dst, lo, hi) })
		metricsFor(opt.Name).observe(n, nc, 1, time.Since(start), 1)
		return dst
	}
	if len(f.bufs) < opt.Workers {
		f.bufs = append(f.bufs, make([]frontierBuf[T], opt.Workers-len(f.bufs))...)
	}
	return f.fanIn(dst, n, opt, body)
}

// fanIn is Collect's multi-worker pass; kept apart so that only this path
// moves dst to the heap.
func (f *Frontier[T]) fanIn(dst []T, n int, opt Opt, body func(out []T, lo, hi int) []T) []T {
	ForW(n, opt, func(w, lo, hi int) {
		b := &f.bufs[w]
		if b.s = body(b.s, lo, hi); len(b.s) > 0 {
			f.mu.Lock()
			dst = append(dst, b.s...)
			f.mu.Unlock()
			b.s = b.s[:0]
		}
	})
	return dst
}
