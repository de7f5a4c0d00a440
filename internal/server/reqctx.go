package server

import (
	"context"
	"sync"
	"time"
)

// A request's context.Context is its pooled trace (trace.go): the trace
// answers Value for itself and its active span, and reqCtx below holds the
// deadline and the cancellation. That is what context.WithTimeout, its
// timer and two context.WithValue calls used to allocate per request.
//
// The semantics are context.WithTimeout's over the parent the request
// arrived with (net/http's request context, or none on the wire): Deadline
// is the sooner of the request's and the parent's; Done closes, and Err
// turns non-nil, at the deadline or when the parent ends, whichever is
// first. Only a request that blocks asks for Done, so only a blocking
// request pays for the channel, the trace's timer re-arm and the hook on
// its parent; every other request polls the clock and the parent in Err.

// reqCtx is a request trace's deadline and cancellation state.
type reqCtx struct {
	parent   context.Context
	deadline time.Time // zero until arm: the parent's rules

	mu      sync.Mutex
	err     error         // set once, by cancel
	done    chan struct{} // made by a waiter, closed by cancel; reused until closed
	watched bool          // a waiter has asked for done this request
	timer   *time.Timer   // the trace's own, made by its first waiter, re-armed by each
	unlink  func() bool   // stops the hook on the parent
	gen     uint64        // requests served, so a late parent hook spares the next
}

// closedDone is the Done channel of a context cancelled before anyone
// asked for one.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// arm gives the request its deadline, d from now or the parent's when that
// is sooner, as context.WithTimeout does.
func (c *reqCtx) arm(d time.Duration) {
	dl := time.Now().Add(d)
	if pd, ok := c.parent.Deadline(); ok && pd.Before(dl) {
		dl = pd
	}
	c.mu.Lock()
	c.deadline = dl
	c.mu.Unlock()
}

// Deadline implements context.Context.
func (c *reqCtx) Deadline() (time.Time, bool) {
	if c.deadline.IsZero() {
		return c.parent.Deadline()
	}
	return c.deadline, true
}

// Done implements context.Context. The first call of a request arms the
// trace's timer for the deadline and hooks the parent's cancellation; a
// request already past its deadline, or under an ended parent, gets a
// closed channel at once.
func (c *reqCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poll()
	if c.err != nil || c.watched {
		return c.done
	}
	c.watched = true
	if c.done == nil {
		c.done = make(chan struct{})
	}
	if !c.deadline.IsZero() {
		if c.timer == nil {
			c.timer = time.AfterFunc(time.Until(c.deadline), c.expire)
		} else {
			c.timer.Reset(time.Until(c.deadline))
		}
	}
	if c.parent.Done() != nil {
		gen, parent := c.gen, c.parent
		c.unlink = context.AfterFunc(parent, func() { c.parentDone(gen) })
	}
	return c.done
}

// Err implements context.Context.
func (c *reqCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.poll()
	return c.err
}

// poll cancels the context if its deadline has passed or its parent has
// ended, whether or not the timer or the parent hook has run; c.mu is held.
func (c *reqCtx) poll() {
	if c.err != nil {
		return
	}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		c.cancel(context.DeadlineExceeded)
	} else if err := c.parent.Err(); err != nil {
		c.cancel(err)
	}
}

// cancel ends the context with err; c.mu is held.
func (c *reqCtx) cancel(err error) {
	c.err = err
	if c.done == nil {
		c.done = closedDone
	} else {
		close(c.done)
	}
}

// expire is the timer's callback. A firing armed by an earlier request of
// the pooled trace finds the current request's deadline, so it cancels
// only what has expired.
func (c *reqCtx) expire() {
	c.mu.Lock()
	c.poll()
	c.mu.Unlock()
}

// parentDone is the parent hook's callback, for request gen.
func (c *reqCtx) parentDone(gen uint64) {
	c.mu.Lock()
	if c.gen == gen {
		c.poll()
	}
	c.mu.Unlock()
}

// endCtx ends the request's context at finish, readying it for the pooled
// trace's next request: the timer and the parent hook are stopped, and a
// closed done channel is dropped.
func (c *reqCtx) endCtx() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.watched {
		if c.timer != nil {
			c.timer.Stop()
		}
		if c.unlink != nil {
			c.unlink()
			c.unlink = nil
		}
	}
	if c.err != nil {
		c.done = nil
	}
	c.parent, c.deadline, c.err, c.watched = context.Background(), time.Time{}, nil, false
	c.gen++
}

// Value implements context.Context: the trace itself, its active span and
// span storage, then whatever the parent carries.
func (rt *reqTrace) Value(key any) any {
	if _, ok := key.(reqTraceKey); ok {
		return rt
	}
	if v, ok := rt.spans.ContextValue(key); ok {
		return v
	}
	return rt.parent.Value(key)
}
