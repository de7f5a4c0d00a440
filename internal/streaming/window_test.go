package streaming

import (
	"testing"

	"repro/internal/gen"
)

func TestSlidingWindowExpiry(t *testing.T) {
	w := NewSlidingWindowGraph(16, false, 10)
	w.Apply(gen.EdgeUpdate{Src: 0, Dst: 1, Time: 0})
	w.Apply(gen.EdgeUpdate{Src: 1, Dst: 2, Time: 5})
	if !w.Graph().HasEdge(0, 1) {
		t.Fatal("edge missing before expiry")
	}
	// Advance time past the window.
	w.Apply(gen.EdgeUpdate{Src: 2, Dst: 3, Time: 11})
	if w.Graph().HasEdge(0, 1) {
		t.Fatal("edge (0,1) at t=0 should have expired at t=11 (window 10)")
	}
	if !w.Graph().HasEdge(1, 2) {
		t.Fatal("edge (1,2) at t=5 should survive at t=11")
	}
	if w.Expired != 1 {
		t.Fatalf("expired = %d", w.Expired)
	}
}

func TestSlidingWindowRefresh(t *testing.T) {
	w := NewSlidingWindowGraph(8, false, 10)
	w.Apply(gen.EdgeUpdate{Src: 0, Dst: 1, Time: 0})
	// Refresh the same edge later: it must survive past the original
	// expiry horizon.
	w.Apply(gen.EdgeUpdate{Src: 0, Dst: 1, Time: 8})
	w.Apply(gen.EdgeUpdate{Src: 2, Dst: 3, Time: 12})
	if !w.Graph().HasEdge(0, 1) {
		t.Fatal("refreshed edge expired prematurely")
	}
	// And it does expire once the refreshed stamp ages out.
	w.Apply(gen.EdgeUpdate{Src: 4, Dst: 5, Time: 19})
	if w.Graph().HasEdge(0, 1) {
		t.Fatal("refreshed edge should expire by t=19")
	}
}

func TestSlidingWindowExplicitDelete(t *testing.T) {
	w := NewSlidingWindowGraph(8, false, 100)
	w.Apply(gen.EdgeUpdate{Src: 0, Dst: 1, Time: 1})
	w.Apply(gen.EdgeUpdate{Src: 0, Dst: 1, Time: 2, Delete: true})
	if w.Graph().HasEdge(0, 1) {
		t.Fatal("explicit delete ignored")
	}
}

func TestSlidingWindowStreamConsistency(t *testing.T) {
	// After a long stream, every surviving edge's timestamp is within the
	// window of the final clock.
	w := NewSlidingWindowGraph(1<<6, false, 50)
	for _, u := range gen.EdgeUpdateStream(6, 2000, 0.05, 3) {
		w.Apply(u)
	}
	cutoff := w.Now() - w.Window
	g := w.Graph()
	for v := int32(0); v < g.NumVertices(); v++ {
		g.ForEachNeighbor(v, func(dst int32, _ float32, tm int64) {
			if tm < cutoff {
				t.Fatalf("stale edge (%d,%d) at t=%d survives cutoff %d", v, dst, tm, cutoff)
			}
		})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
