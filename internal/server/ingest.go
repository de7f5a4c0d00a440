package server

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/wire"
)

// enqueue admits updates into the bounded ingest queue without blocking.
// Admission is per update and in order: once one update is refused (queue
// full), the rest of the request is refused too, so the client retries a
// contiguous tail. Accepted updates are durable from the next applied
// batch's snapshot onward.
func (s *Server) enqueue(edits []dyngraph.Edit) wire.IngestResult {
	var res wire.IngestResult
	for i, e := range edits {
		select {
		case s.queue <- e:
			res.Accepted++
		default:
			res.Rejected = len(edits) - i
			s.m.rejected.Add(int64(res.Rejected))
			s.setQueueDepth()
			return res
		}
	}
	s.setQueueDepth()
	return res
}

// setQueueDepth publishes the current queue occupancy and raises the
// high-water mark, the capacity-planning signal for QueueCap.
func (s *Server) setQueueDepth() {
	d := len(s.queue)
	s.m.depth.Set(float64(d))
	s.m.depthHWM.observe(int64(d))
}

// ingestLoop is the single writer of the dynamic graph and the only builder
// of bundles (doc.go). After every event it applies the full batches of at
// most batchCap already queued as one window (a partial batch waits
// up to FlushEvery), then builds and publishes if readers want it. On
// shutdown it drains the queue and publishes it all before it exits, so
// every acknowledged update reaches the final snapshot. Its op=ingest-loop
// pprof label, inherited by its builds' par workers, attributes apply and
// build CPU in captured profiles to ingest, not to the request that
// happened to trigger the capture.
func (s *Server) ingestLoop() {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("op", "ingest-loop")))
	defer close(s.ingestEnd)
	batch := make([]dyngraph.Edit, 0, s.cfg.batchSize)
	s.b.dedup = make(map[int64]int, s.cfg.batchSize)
	flush := time.NewTimer(s.cfg.FlushEvery)
	defer flush.Stop()

	apply := func() {
		if len(batch) == 0 {
			return
		}
		s.applyBatch(batch)
		batch = batch[:0]
	}
	// fill moves queued edits into the batch, without blocking, up to the cap.
	fill := func() {
		for len(batch) < s.cfg.batchSize {
			select {
			case e := <-s.queue:
				batch = append(batch, e)
			default:
				return
			}
		}
	}

	for {
		select {
		case e := <-s.queue:
			batch = append(batch, e)
			fill()
		case <-flush.C:
			apply()
			flush.Reset(s.cfg.FlushEvery)
		case <-s.wake:
		case <-s.stopCh:
			// Drain: everything already admitted must land in the graph.
			for fill(); len(batch) > 0; fill() {
				apply()
			}
			s.maybeBuild(true)
			return
		}
		for n := len(batch) + len(s.queue); n >= s.cfg.batchSize; n -= s.cfg.batchSize {
			fill()
			apply()
		}
		s.maybeBuild(false)
	}
}

// applyBatch dedups one batch in place, applies it to the dynamic graph,
// records it in the next build's window, and publishes the accounting.
// In-batch dedup keeps the *last* operation per (src,dst) pair —
// semantically identical to applying all of them in order (dyngraph updates
// in place), minus the redundant intermediate writes. This is the
// serving-layer form of the paper's in-line dedup: redundant updates are
// discarded before they reach the graph.
func (s *Server) applyBatch(batch []dyngraph.Edit) {
	if s.cfg.applyGate != nil {
		<-s.cfg.applyGate
	}
	dedup := batch
	if len(batch) > 1 {
		directed := s.cfg.Directed
		last := s.b.dedup
		clear(last)
		for i, e := range batch {
			last[editKey(e, directed)] = i
		}
		if len(last) < len(batch) {
			dedup = batch[:0]
			for i, e := range batch {
				if last[editKey(e, directed)] == i {
					dedup = append(dedup, e)
				}
			}
		}
	}

	sp := s.reg.Tracer().Start("server.apply")
	start := time.Now()
	res := s.dyn.ApplyEdits(dedup)
	s.b.version++
	s.b.applied += int64(len(dedup))
	s.record(dedup, res.Deleted > 0)
	sp.SetAttr("batch", strconv.Itoa(len(batch)))
	sp.SetAttr("dedup", strconv.Itoa(len(dedup)))
	sp.SetAttr("version", strconv.FormatInt(s.b.version, 10))
	sp.End()
	// The published snapshot just went stale; publish its age so dashboards
	// see staleness grow between builds.
	s.m.snapAge.Set(time.Since(s.cur.Load().built).Seconds())

	s.m.applySec.ObserveDuration(time.Since(start))
	s.setQueueDepth()
}

// editKey packs the dedup identity of an edit: the endpoint pair,
// normalized when the graph is undirected (where (u,v) and (v,u) are the
// same edge). Insert and delete on the same pair share a key — the last
// operation decides the edge's fate, exactly as in-order application would.
func editKey(e dyngraph.Edit, directed bool) int64 {
	u, v := e.Src, e.Dst
	if !directed && u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(uint32(v))
}
