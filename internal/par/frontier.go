package par

import "slices"

// Frontier collects what the chunks of a parallel pass produce — the next
// BFS level, the vertices a peel round freed, the vertices a relaxation
// improved — without allocating per chunk or per pass. Each worker appends
// to a buffer of its own, keyed by the worker id ForW passes, and Collect
// drains the buffers into a slice the caller holds and hands back pass
// after pass, so a level-synchronous kernel allocates O(workers) buffers
// for its whole run. The zero value is ready to use.
//
// Drain order is worker order: with more than one worker the collected
// elements arrive in an order that follows the schedule. Use a Frontier
// only where the kernel's output provably does not depend on that order
// (a CAS-min, a confluent or unique fixpoint, a deterministic post-pass);
// where it does, collect by chunk index with Chunks.
type Frontier[T any] struct {
	bufs []frontierBuf[T]
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
// the frontier being read) to reuse its storage. dst must not alias
// anything body reads.
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
		runInline(n, grain, metricsFor(opt.Name), func(lo, hi int) { dst = body(dst, lo, hi) })
		return dst
	}
	if len(f.bufs) < opt.Workers {
		f.bufs = append(f.bufs, make([]frontierBuf[T], opt.Workers-len(f.bufs))...)
	}
	run(n, opt, func(w, lo, hi int) { f.bufs[w].s = body(f.bufs[w].s, lo, hi) })
	total := 0
	for w := range f.bufs {
		total += len(f.bufs[w].s)
	}
	dst = slices.Grow(dst, total)
	for w := range f.bufs {
		dst = append(dst, f.bufs[w].s...)
		f.bufs[w].s = f.bufs[w].s[:0]
	}
	return dst
}
