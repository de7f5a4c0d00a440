package scratch

import "sync"

// Pool is a typed sync.Pool for scratch structures: kernels that cannot
// hold a per-worker accumulator across invocations borrow one here, and
// invocations less than a garbage collection or two apart get the same one
// back (the collector empties the pool). The caller is responsible for
// Reset-ing borrowed values (by convention, before Put, so Get returns a
// ready accumulator).
type Pool[T any] struct {
	p sync.Pool
}

// NewPool returns a pool that manufactures values with mk when empty.
func NewPool[T any](mk func() T) *Pool[T] {
	return &Pool[T]{p: sync.Pool{New: func() any { return mk() }}}
}

// Get borrows a value (manufacturing one if the pool is empty).
func (p *Pool[T]) Get() T { return p.p.Get().(T) }

// Put returns a value to the pool.
func (p *Pool[T]) Put(v T) { p.p.Put(v) }
