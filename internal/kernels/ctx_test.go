package kernels

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// TestCtxVariantsMatchBatch: every ctx-aware entry point, run to
// completion, is byte-identical to its batch counterpart.
func TestCtxVariantsMatchBatch(t *testing.T) {
	g := gen.RMAT(10, 8, gen.Graph500RMAT, 7, false)
	ctx := context.Background()

	wantPR, wantIters := PageRank(g, DefaultPageRankOptions())
	gotPR, gotIters, err := PageRankCtx(ctx, g, DefaultPageRankOptions())
	if err != nil {
		t.Fatalf("PageRankCtx: %v", err)
	}
	if gotIters != wantIters {
		t.Fatalf("PageRankCtx iters = %d, want %d", gotIters, wantIters)
	}
	for v := range wantPR {
		if gotPR[v] != wantPR[v] {
			t.Fatalf("PageRankCtx rank[%d] = %x, want %x", v, gotPR[v], wantPR[v])
		}
	}

	wantCC := WCC(g)
	gotCC, err := WCCCtx(ctx, g)
	if err != nil {
		t.Fatalf("WCCCtx: %v", err)
	}
	if gotCC.NumComponents != wantCC.NumComponents {
		t.Fatalf("WCCCtx components = %d, want %d", gotCC.NumComponents, wantCC.NumComponents)
	}
	for v := range wantCC.Label {
		if gotCC.Label[v] != wantCC.Label[v] {
			t.Fatalf("WCCCtx label[%d] = %d, want %d", v, gotCC.Label[v], wantCC.Label[v])
		}
	}

	wantHop := KHopNeighborhood(g, []int32{0, 5}, 2)
	gotHop, err := KHopNeighborhoodCtx(ctx, g, []int32{0, 5}, 2)
	if err != nil {
		t.Fatalf("KHopNeighborhoodCtx: %v", err)
	}
	if len(gotHop) != len(wantHop) {
		t.Fatalf("KHopNeighborhoodCtx: %d vertices, want %d", len(gotHop), len(wantHop))
	}
	for i := range wantHop {
		if gotHop[i] != wantHop[i] {
			t.Fatalf("KHopNeighborhoodCtx[%d] = %d, want %d", i, gotHop[i], wantHop[i])
		}
	}

	wantJ := JaccardFromVertex(g, 3, 0)
	gotJ, err := JaccardFromVertexCtx(ctx, g, 3, 0)
	if err != nil {
		t.Fatalf("JaccardFromVertexCtx: %v", err)
	}
	if len(gotJ) != len(wantJ) {
		t.Fatalf("JaccardFromVertexCtx: %d scores, want %d", len(gotJ), len(wantJ))
	}
	for i := range wantJ {
		if gotJ[i] != wantJ[i] {
			t.Fatalf("JaccardFromVertexCtx[%d] = %+v, want %+v", i, gotJ[i], wantJ[i])
		}
	}

	wantTop := TopKByDegree(g, 10)
	gotTop, err := TopKByDegreeCtx(ctx, g, 10)
	if err != nil {
		t.Fatalf("TopKByDegreeCtx: %v", err)
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Fatalf("TopKByDegreeCtx[%d] = %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}
}

// TestPageRankCtxDeadline: an expiring deadline aborts PageRank with
// DeadlineExceeded, a nil result, and scheduler-visible skipped chunks.
func TestPageRankCtxDeadline(t *testing.T) {
	g := gen.RMAT(12, 16, gen.Graph500RMAT, 3, false)
	before := par.TotalsSnapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
	defer cancel()
	rank, _, err := PageRankCtx(ctx, g, DefaultPageRankOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if rank != nil {
		t.Fatal("cancelled PageRankCtx returned a partial rank vector")
	}
	d := par.TotalsSnapshot().Sub(before)
	if d.Cancellations == 0 {
		t.Fatalf("scheduler saw no cancellations: %+v", d)
	}
}

// TestWCCCtxPreCancelled: an already-cancelled context returns immediately.
func TestWCCCtxPreCancelled(t *testing.T) {
	g := gen.RMAT(8, 8, gen.Graph500RMAT, 1, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WCCCtx(ctx, g); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, err := KHopNeighborhoodCtx(ctx, g, []int32{0}, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("khop err = %v, want Canceled", err)
	}
	if _, err := JaccardFromVertexCtx(ctx, g, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("jaccard err = %v, want Canceled", err)
	}
	if _, err := TopKByDegreeCtx(ctx, g, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("topk err = %v, want Canceled", err)
	}
}

// TestAppendFormsMatchWrappers: for every traversal query the wrapper, the
// ctx form and the append form agree element for element with a reference
// written the slow way, and appending behind a non-empty dst leaves what it
// held untouched.
func TestAppendFormsMatchWrappers(t *testing.T) {
	g := gen.RMAT(10, 8, gen.Graph500RMAT, 7, false)
	ctx := context.Background()
	var hops []int32
	var pairs []JaccardPairScore
	for _, u := range []int32{0, 3, 5, 77, 1023} {
		for k := int32(0); k <= 3; k++ {
			seeds := []int32{u, 5, u}
			want := khopReference(g, seeds, k)
			if got := KHopNeighborhood(g, seeds, k); !slices.Equal(got, want) {
				t.Fatalf("KHopNeighborhood(%v, %d) = %d vertices, reference BFS %d", seeds, k, len(got), len(want))
			}
			got, err := KHopNeighborhoodCtx(ctx, g, seeds, k)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("KHopNeighborhoodCtx(%v, %d) = %d vertices, %v; reference %d", seeds, k, len(got), err, len(want))
			}
			held := slices.Clone(hops)
			hops, err = AppendKHopNeighborhoodCtx(ctx, hops, g, seeds, k)
			if err != nil || !slices.Equal(hops[:len(held)], held) || !slices.Equal(hops[len(held):], want) {
				t.Fatalf("AppendKHopNeighborhoodCtx(%v, %d) after %d held: prefix or answer differs (%v)", seeds, k, len(held), err)
			}
		}
		for _, th := range []float64{0, 0.1} {
			want := jaccardReference(g, u, th)
			if got := JaccardFromVertex(g, u, th); !slices.Equal(got, want) {
				t.Fatalf("JaccardFromVertex(%d, %g) = %d pairs, reference %d", u, th, len(got), len(want))
			}
			got, err := JaccardFromVertexCtx(ctx, g, u, th)
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("JaccardFromVertexCtx(%d, %g) = %d pairs, %v; reference %d", u, th, len(got), err, len(want))
			}
			held := slices.Clone(pairs)
			pairs, err = AppendJaccardFromVertexCtx(ctx, pairs, g, u, th)
			if err != nil || !slices.Equal(pairs[:len(held)], held) || !slices.Equal(pairs[len(held):], want) {
				t.Fatalf("AppendJaccardFromVertexCtx(%d, %g) after %d held: prefix or answer differs (%v)", u, th, len(held), err)
			}
		}
	}
}

// cancelOnCheck is a context that reports Canceled from its nth Err call
// on, so a traversal is cancelled at a chosen cooperative check, with its
// pooled scratch already dirty.
type cancelOnCheck struct {
	context.Context
	left int
}

func (c *cancelOnCheck) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelledTraversalReturnsScratch: a traversal cancelled mid-flight
// hands dst back as it got it and returns its visited set to the pool
// reset, so the next call, which borrows the same set, is still correct.
func TestCancelledTraversalReturnsScratch(t *testing.T) {
	g := gen.RMAT(12, 16, gen.Graph500RMAT, 3, false)
	hub := TopKByDegree(g, 1)[0].V
	held := []int32{-7}
	for i := 0; i < 4; i++ {
		got, err := AppendKHopNeighborhoodCtx(&cancelOnCheck{context.Background(), 1}, held, g, []int32{hub}, 3)
		if !errors.Is(err, context.Canceled) || !slices.Equal(got, held) {
			t.Fatalf("cancelled khop = %d vertices, %v; want dst back and Canceled", len(got), err)
		}
		if got, want := KHopNeighborhood(g, []int32{1, 2}, 1), khopReference(g, []int32{1, 2}, 1); !slices.Equal(got, want) {
			t.Fatalf("khop after a cancelled one: %d vertices, want %d", len(got), len(want))
		}
		pairs, err := AppendJaccardFromVertexCtx(&cancelOnCheck{context.Background(), 1}, nil, g, hub, 0)
		if !errors.Is(err, context.Canceled) || pairs != nil {
			t.Fatalf("cancelled jaccard = %d pairs, %v; want dst back and Canceled", len(pairs), err)
		}
		if got, want := JaccardFromVertex(g, 9, 0), jaccardReference(g, 9, 0); !slices.Equal(got, want) {
			t.Fatalf("jaccard after a cancelled one: %d pairs, want %d", len(got), len(want))
		}
	}
}

// khopReference is the textbook level-synchronous BFS the k-hop kernel
// replaced: an n-sized depth array and per-level frontier slices.
func khopReference(g *graph.Graph, seeds []int32, k int32) []int32 {
	depth := make([]int32, g.NumVertices())
	for i := range depth {
		depth[i] = Unreached
	}
	var order, frontier []int32
	for _, s := range seeds {
		if depth[s] == Unreached {
			depth[s] = 0
			frontier = append(frontier, s)
			order = append(order, s)
		}
	}
	for d := int32(1); d <= k && len(frontier) > 0; d++ {
		var next []int32
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if depth[w] == Unreached {
					depth[w] = d
					next = append(next, w)
					order = append(order, w)
				}
			}
		}
		frontier = next
	}
	return order
}

// jaccardReference scores u's 2-hop partners at or above threshold with a
// map accumulator and ranks them with the reference sort.
func jaccardReference(g *graph.Graph, u int32, threshold float64) []JaccardPairScore {
	counts := map[int32]int32{}
	for _, x := range g.Neighbors(u) {
		for _, v := range g.Neighbors(x) {
			if v != u {
				counts[v]++
			}
		}
	}
	var out []JaccardPairScore
	for v, c := range counts {
		union := g.Degree(u) + g.Degree(v) - c
		if score := float64(c) / float64(union); union > 0 && score >= threshold {
			out = append(out, JaccardPairScore{U: u, V: v, Inter: c, Score: score})
		}
	}
	return rankBySort(out)
}
