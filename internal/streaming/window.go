package streaming

import (
	"container/heap"

	"repro/internal/dyngraph"
)

// SlidingWindowGraph maintains a dynamic graph containing only the edges
// whose timestamps fall within the trailing window — the aging semantics
// streaming analytics commonly need (only recent interactions matter).
// Expired edges are deleted lazily as time advances with each update.
type SlidingWindowGraph struct {
	g       *dyngraph.DynGraph
	Window  int64
	expiry  expiryHeap
	Expired int64
	now     int64
}

type expiryItem struct {
	time     int64
	src, dst int32
}

type expiryHeap []expiryItem

func (h expiryHeap) Len() int            { return len(h) }
func (h expiryHeap) Less(i, j int) bool  { return h[i].time < h[j].time }
func (h expiryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x interface{}) { *h = append(*h, x.(expiryItem)) }
func (h *expiryHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// NewSlidingWindowGraph creates a windowed view with the given width (in
// timestamp units) over n vertices.
func NewSlidingWindowGraph(n int32, directed bool, window int64) *SlidingWindowGraph {
	return &SlidingWindowGraph{g: dyngraph.New(n, directed), Window: window}
}

// Graph exposes the underlying dynamic graph (current window contents).
func (w *SlidingWindowGraph) Graph() *dyngraph.DynGraph { return w.g }

// Now returns the latest observed timestamp.
func (w *SlidingWindowGraph) Now() int64 { return w.now }

// Apply ingests an update (using its Time as the clock) and expires edges
// older than Window. Explicit deletes are honored immediately.
func (w *SlidingWindowGraph) Apply(u dyngraph.Edit) {
	if u.Time > w.now {
		w.now = u.Time
	}
	if res := w.g.ApplyEdits([]dyngraph.Edit{u}); res.Inserted+res.Updated > 0 {
		heap.Push(&w.expiry, expiryItem{time: u.Time, src: u.Src, dst: u.Dst})
	}
	cutoff := w.now - w.Window
	for w.expiry.Len() > 0 && w.expiry[0].time < cutoff {
		it := heap.Pop(&w.expiry).(expiryItem)
		// Only delete if the stored edge still carries the expired
		// timestamp; a re-inserted (refreshed) edge has a newer one.
		stillOld := false
		w.g.ForEachNeighbor(it.src, func(dst int32, _ float32, t int64) {
			if dst == it.dst && t == it.time {
				stillOld = true
			}
		})
		if stillOld {
			w.Expired += w.g.ApplyEdits([]dyngraph.Edit{{Src: it.src, Dst: it.dst, Delete: true}}).Deleted
		}
	}
}
