package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/kernels"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The bundle lifecycle of doc.go: readers pin (pinCurrent, acquire, read);
// the ingest goroutine builds, publishes and recycles (maybeBuild on).

// kernel indexes bundle.parts: the snapshot, then the kernel results a
// bundle can carry. As a read's need, partGraph is the graph alone.
type kernel uint8

const (
	partGraph kernel = iota
	kernWCC          // component labels and sizes
	kernPR           // PageRank vector
	kernDeg          // degree vector behind top-k
	numParts
)

var kernelNames = [numParts]string{"", "wcc", "pagerank", "topdegree"}

// part is a piece of a bundle the writer recycles as a unit. A bundle built
// at its predecessor's version (for a newly asked-for kernel) shares the
// predecessor's parts.
type part struct {
	version int64
	g       *graph.Graph      // partGraph
	cc      *kernels.CCResult // kernWCC, with sizes: members per canonical label
	sizes   []int64
	vec     []float64 // kernPR: the ranks; kernDeg: the degrees
	iters   int       // kernPR
	users   int       // unrecycled bundles holding the part; writer-only
}

// bundle is one published version. Everything but the synchronized fields
// at the end is written before publication and never after.
type bundle struct {
	version  int64
	built    time.Time
	parts    [numParts]*part // nil: kernel not computed; parts[partGraph] always set
	predRead bool            // the predecessor was read: readers are about

	pins atomic.Int64  // readers holding the bundle
	read atomic.Bool   // pinned since publication: readers want the next version
	next chan struct{} // closed when the successor is published
}

func (b *bundle) unpin() { b.pins.Add(-1) }

// pinCurrent pins the published bundle and marks it read. The writer
// publishes a successor before it reads the retired bundle's pins, so
// revalidating after the increment means a reader either is counted or
// sees the retirement and lets go.
func (s *Server) pinCurrent() *bundle {
	for {
		b := s.cur.Load()
		b.pins.Add(1)
		if s.cur.Load() == b {
			if !b.read.Load() {
				b.read.Store(true)
			}
			return b
		}
		b.unpin()
	}
}

// acquire returns a pinned bundle carrying k, no older than the visible
// version at the call: the published one, or one the writer builds on
// request. The wait is rt's "kernel" stage (cache=miss) when k is missing,
// else its "snapshot" stage; the build's spans hang under the first waiting
// request's stage. ctx ends the wait, never the build. The caller unpins.
func (s *Server) acquire(ctx context.Context, rt *reqTrace, k kernel) (*bundle, error) {
	want := s.version.Load()
	b := s.pinCurrent()
	if b.version >= want && b.parts[k] != nil {
		s.cacheHit(rt, k)
		return b, nil
	}
	var st stage
	if b.parts[k] != nil {
		ctx, st = rt.stageCtx(ctx, "snapshot")
	} else {
		s.want[k].Store(true)
		ctx, st = rt.stageCtx(ctx, "kernel", telemetry.L("kernel", kernelNames[k]), telemetry.L("cache", "miss"))
	}
	defer st.end()
	if telemetry.SpanFromContext(ctx) != nil && s.buildCtx.Load() == nil {
		bc := context.WithoutCancel(ctx)
		s.buildCtx.CompareAndSwap(nil, &bc)
	}
	for b.version < want || b.parts[k] == nil {
		select {
		case s.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
		select {
		case <-b.next:
		case <-ctx.Done():
		case <-s.ingestEnd: // the writer has published its last bundle
			if b == s.cur.Load() {
				b.unpin()
				return nil, wire.Errorf(http.StatusServiceUnavailable, "server is shut down")
			}
		}
		// Checked after any wake-up, against the deadline itself: a build
		// that finishes while the deadline's timer has not yet fired (a
		// loaded host) must not turn an expired wait into an answer.
		if err := par.CtxErr(ctx); err != nil {
			b.unpin()
			return nil, err
		}
		b.unpin()
		b = s.pinCurrent()
	}
	return b, nil
}

// read returns part k of the request's bundle, pinned until reqTrace.finish
// (so ctx must carry a request trace). A batch's sub-queries share the first
// one's bundle; one needing a kernel it lacks pins a newer bundle beside it.
func (s *Server) read(ctx context.Context, k kernel) (*part, error) {
	rt := traceFrom(ctx)
	if n := len(rt.pinned); n > 0 && rt.pinned[n-1].parts[k] != nil {
		s.cacheHit(rt, k)
		return rt.pinned[n-1].parts[k], nil
	}
	b, err := s.acquire(ctx, rt, k)
	if err != nil {
		return nil, err
	}
	rt.pinned = append(rt.pinned, b)
	return b.parts[k], nil
}

// cacheHit counts a kernel read served from a published result and tags
// the root span, so traces show the request ran no kernel.
func (s *Server) cacheHit(rt *reqTrace, k kernel) {
	if k == partGraph {
		return
	}
	s.m.kernHits[k].Inc()
	if rt != nil {
		rt.root.SetAttr("cache", "hit")
	}
}

// builder is the ingest goroutine's private state: the dynamic graph's
// version and applied count (ahead of the visible ones until a build or an
// unread apply), the incremental states, and recycled storage.
type builder struct {
	version int64
	applied int64

	// states[k] is kernel k's incremental state (*incr.WCCState, PRState or
	// DegreeState), nil before its first read.
	states [numParts]interface{ Version() int64 }

	graphs  graph.Recycler
	sizes   [][]int64     // component-size arrays to reuse
	retired []*bundle     // published over, not yet recycled
	dedup   map[int64]int // applyBatch's last-write index, cleared per batch
}

// maybeBuild publishes the next bundle when readers want one — the current
// bundle or its predecessor was read since publication (the predecessor so
// that a batch applied right after a publish does not catch readers out),
// or this is the final build, and the graph has moved on; or the current
// bundle lacks a kernel a reader asked for. Otherwise the visible counters
// advance without a build.
func (s *Server) maybeBuild(final bool) {
	cur := s.cur.Load()
	lacks := false
	for k := kernWCC; k < numParts; k++ {
		lacks = lacks || (s.want[k].Load() && cur.parts[k] == nil)
	}
	if !lacks && !(cur.version < s.b.version && (final || cur.predRead || cur.read.Load())) {
		s.setVisible()
		return
	}
	nb := s.build(cur)
	// Every delta-log consumer now stands at nb.version: a state exists only
	// for a kernel readers want, and each build advances or re-seeds it.
	// Trimmed before publication, so a reader woken by it sees the log empty.
	s.deltas.Trim(nb.version)
	s.m.pendingDeltas.Set(0)
	s.cur.Store(nb)
	s.setVisible()
	close(cur.next)
	s.m.snapAge.Set(0)
	s.b.retired = append(s.b.retired, cur)
	s.recycleRetired()
}

// setVisible moves the /stats and shard-meta counters to the dynamic
// graph's: version before applied, so seeing applied = N implies its version.
func (s *Server) setVisible() {
	s.version.Store(s.b.version)
	s.edges.Store(s.dyn.NumEdges())
	s.arcs.Store(s.dyn.NumArcs())
	s.applied.Store(s.b.applied)
}

// build makes the bundle at the dynamic graph's version from cur: cur's
// parts at cur's version, else a patched snapshot and advanced kernels.
func (s *Server) build(cur *bundle) *bundle {
	ctx, sp, end := s.buildContext()
	defer end()
	nb := &bundle{version: s.b.version, predRead: cur.read.Load(), next: make(chan struct{})}
	for k := partGraph; k < numParts; k++ {
		switch {
		case cur.version == nb.version && cur.parts[k] != nil:
			nb.parts[k] = cur.parts[k]
		case k == partGraph:
			nb.parts[k] = &part{version: nb.version, g: s.patch(sp, cur)}
		case s.want[k].Load():
			nb.parts[k] = s.buildKernel(ctx, sp, k, nb.parts[partGraph].g, nb.version)
		}
		if p := nb.parts[k]; p != nil {
			p.users++
		}
	}
	nb.built = time.Now()
	return nb
}

// buildContext returns the never-cancelled context the build's kernels run
// in and the span its steps hang from: the first waiting reader's stage for
// both, so a stall's trace shows what it waited on, else an untraced context
// and a server.build root span (its steps, not every scheduler loop).
func (s *Server) buildContext() (context.Context, *telemetry.Span, func()) {
	if ctx := s.buildCtx.Swap(nil); ctx != nil {
		return *ctx, telemetry.SpanFromContext(*ctx), func() {}
	}
	sp := s.reg.Tracer().Start("server.build")
	return context.Background(), sp, sp.End
}

// buildSpanNames name the build's step spans, by part.
var buildSpanNames = [numParts]string{"build.snapshot", "build.wcc", "build.pagerank", "build.topdegree"}

// patch builds the next snapshot from cur's: the touched rows when the
// delta log covers the window (server_snapshot_patches_total), every row
// when it does not or when the window would touch most rows (a bulk load:
// the log holds just the window, trimmed at every publish;
// server_snapshot_rebuilds_total).
func (s *Server) patch(sp *telemetry.Span, cur *bundle) *graph.Graph {
	defer sp.Child(buildSpanNames[partGraph]).End()
	_, edits := s.deltas.Len()
	if batches, ok := s.deltas.Window(cur.version, s.b.version); ok && 2*edits < int(s.cfg.Vertices) {
		s.m.snapPatches.Inc()
		return s.dyn.SnapshotDeltaRecycled(cur.parts[partGraph].g, incr.TouchedVertices(batches, s.cfg.Vertices), &s.b.graphs)
	}
	s.m.rebuilds.Inc()
	return s.dyn.SnapshotDeltaRecycled(nil, nil, &s.b.graphs)
}

// buildKernel computes kernel k on g at version v: its state advanced over
// the delta window (server_incr_advances_total), else a full recompute
// (server_cache_rebuilds_total) that re-seeds the state; a state the log no
// longer covers also counts in server_incr_fallbacks_total. ctx is never
// cancelled: kernels cannot fail.
func (s *Server) buildKernel(ctx context.Context, sp *telemetry.Span, k kernel, g *graph.Graph, v int64) *part {
	defer sp.Child(buildSpanNames[k]).End()
	p := &part{version: v}
	if st := s.b.states[k]; st != nil {
		if batches, ok := s.deltas.Window(st.Version(), v); ok {
			var err error
			switch st := st.(type) {
			case *incr.WCCState:
				p.cc, err = st.Advance(ctx, g, v, batches)
			case *incr.PRState:
				p.vec, p.iters, err = st.Advance(ctx, g, v, batches)
			case *incr.DegreeState:
				p.vec, err = st.Advance(ctx, g, v, batches)
			}
			if err == nil {
				s.m.kernAdvances[k].Inc()
				return s.tally(p)
			}
		}
		s.m.kernFallbacks[k].Inc()
	}
	s.m.kernRebuilds[k].Inc()
	switch k {
	case kernWCC:
		p.cc, _ = kernels.WCCCtx(ctx, g)
		s.b.states[k] = incr.SeedWCC(p.cc, v)
	case kernPR:
		p.vec, p.iters, _ = kernels.PageRankCtx(ctx, g, kernels.DefaultPageRankOptions())
		s.b.states[k] = incr.SeedPR(p.vec, g, kernels.DefaultPageRankOptions(), v)
	case kernDeg:
		st := incr.SeedDegrees(g, v)
		p.vec = st.Degrees()
		s.b.states[k] = st
	}
	return s.tally(p)
}

// tally fills a WCC part's component sizes, in a recycled array if free.
func (s *Server) tally(p *part) *part {
	if p.cc == nil {
		return p
	}
	if k := len(s.b.sizes); k > 0 {
		p.sizes, s.b.sizes = s.b.sizes[k-1], s.b.sizes[:k-1]
		clear(p.sizes)
	} else {
		p.sizes = make([]int64, len(p.cc.Label))
	}
	for _, l := range p.cc.Label {
		p.sizes[l]++
	}
	return p
}

// recycleRetired hands back the parts retired, unpinned bundles were the
// last to hold: the snapshot to the graph recycler, kernel results to their
// incremental states, sizes here. Under go test each is poisoned on the way,
// so a read after release fails the oracles.
func (s *Server) recycleRetired() {
	kept := s.b.retired[:0]
	for _, b := range s.b.retired {
		if b.pins.Load() != 0 {
			kept = append(kept, b)
			continue
		}
		for k, p := range b.parts {
			if p == nil {
				continue
			}
			if p.users--; p.users > 0 {
				continue
			}
			s.b.graphs.Release(p.g)
			switch st := s.b.states[k].(type) {
			case *incr.WCCState:
				st.Release(p.cc)
			case *incr.PRState:
				st.Release(p.vec)
			case *incr.DegreeState:
				st.Release(p.vec)
			}
			if p.sizes != nil && len(s.b.sizes) < 2 {
				if testing.Testing() {
					for i := range p.sizes {
						p.sizes[i] = -1
					}
				}
				s.b.sizes = append(s.b.sizes, p.sizes)
			}
		}
	}
	clear(s.b.retired[len(kept):])
	s.b.retired = kept
}
