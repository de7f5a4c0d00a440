package graph

import (
	"fmt"
	"sync/atomic"
)

// arena is the append-only arc storage a chain of snapshot versions shares:
// the three arc arrays at full capacity plus the number of arcs claimed so
// far. Arcs below the tail are never written again, so a Graph, whose arc
// arrays are the arena up to the tail it was published at, needs no lock to
// read while a later version is written above it; the tail moves only by
// compare-and-swap from a version's own end, so of two patches started from
// one version only the first extends the arena.
type arena struct {
	targets []int32
	weights []float32
	times   []int64
	tail    atomic.Int64
}

// claim reserves arcs [from, from+arcs) for the caller. It fails when they
// do not fit or when from is no longer the tail.
func (a *arena) claim(from, arcs int64) bool {
	return from+arcs <= int64(len(a.targets)) && a.tail.CompareAndSwap(from, from+arcs)
}

// Emitter builds one weighted, timestamped Graph row by row — the next
// version of prev, or a graph from scratch when prev is nil. The caller
// declares up front how many arcs it will write, then calls Row for each row
// it rebuilds in ascending vertex order, then Graph. Rows it passes over are
// prev's (empty when prev is nil).
//
// When prev is the newest version in its arena and the arena has room, the
// written rows are appended there and every other row keeps pointing at the
// storage prev points at: the cost is the row index plus the written arcs.
// Otherwise every row, written or carried over, lands back to back in a
// fresh arena: of twice the graph's arcs when there is a prev, so that later
// versions extend it, and of exactly its arcs when there is none — a graph
// from scratch has not shown it will be patched, and batch callers should
// not pay for room they never use. Either way prev and every older version
// stay valid and unchanged.
type Emitter struct {
	g      *Graph
	prev   *Graph
	shared bool  // g extends prev's arena; rows passed over are already in place
	next   int32 // first row neither written nor carried over yet
	cur    int64 // next free arc of the claim
	end    int64 // end of the claim, and of g's view of the arena
}

// NewEmitter starts a graph of n vertices holding live arcs, fresh of them in
// rows the caller will write with Row. A non-nil prev must have n vertices,
// the same directedness, weights and timestamps.
func NewEmitter(n int32, directed bool, prev *Graph, fresh, live int64) *Emitter {
	g := &Graph{n: n, m: live, directed: directed}
	e := &Emitter{g: g, prev: prev}
	index := make([]int64, 2*int(n))
	g.lo, g.hi = index[:n:n], index[n:]
	if prev != nil && prev.arena != nil && prev.arena.claim(int64(len(prev.targets)), fresh) {
		e.shared = true
		copy(g.lo, prev.lo)
		copy(g.hi, prev.hi)
		g.arena, e.cur = prev.arena, int64(len(prev.targets))
		e.end = e.cur + fresh
	} else {
		room := live
		if prev != nil {
			room = 2 * live
		}
		g.arena = &arena{
			targets: make([]int32, room),
			weights: make([]float32, room),
			times:   make([]int64, room),
		}
		g.arena.tail.Store(live)
		e.end = live
	}
	a := g.arena
	g.targets, g.weights, g.times = a.targets[:e.end:e.end], a.weights[:e.end:e.end], a.times[:e.end:e.end]
	return e
}

// Row makes row v deg arcs long and returns its three slices for the caller
// to fill, targets ascending. v must exceed every earlier call's.
func (e *Emitter) Row(v int32, deg int) (targets []int32, weights []float32, times []int64) {
	e.carry(v)
	e.next = v + 1
	g := e.g
	lo, hi := e.cur, e.cur+int64(deg)
	if hi > e.end {
		panic(fmt.Sprintf("graph: emitter row %d ends at arc %d, past the claim's end %d", v, hi, e.end))
	}
	g.lo[v], g.hi[v], e.cur = lo, hi, hi
	return g.targets[lo:hi], g.weights[lo:hi], g.times[lo:hi]
}

// Graph carries over the rows after the last one written and returns the
// finished graph. The Emitter must not be used afterwards.
func (e *Emitter) Graph() *Graph {
	e.carry(e.g.n)
	if e.cur != e.end {
		panic(fmt.Sprintf("graph: emitter stopped at arc %d of a claim ending at %d", e.cur, e.end))
	}
	return e.g
}

// carry brings rows [e.next, to) over from prev. In prev's own arena they
// are in place already; in a fresh one they are copied, a maximal run of
// physically adjacent rows at a time (all of them, when prev is contiguous).
func (e *Emitter) carry(to int32) {
	p, g := e.prev, e.g
	if e.shared || p == nil {
		return
	}
	for v := e.next; v < to; {
		u := v + 1
		for u < to && p.lo[u] == p.hi[u-1] {
			u++
		}
		from, upto := p.lo[v], p.hi[u-1]
		copy(g.targets[e.cur:], p.targets[from:upto])
		copy(g.weights[e.cur:], p.weights[from:upto])
		copy(g.times[e.cur:], p.times[from:upto])
		for shift := e.cur - from; v < u; v++ {
			g.lo[v], g.hi[v] = p.lo[v]+shift, p.hi[v]+shift
		}
		e.cur += upto - from
	}
}
