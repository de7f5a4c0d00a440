package server

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/slo"
	"repro/internal/wire"
)

// Liveness vs readiness. /healthz is pure liveness: it answers 200 for as
// long as the process can serve HTTP at all, including during a drain —
// restarting a draining process loses queued updates, so the liveness
// probe must not fire there. /readyz is the load-balancer signal: it
// aggregates component checks (drain state, ingest-queue headroom,
// snapshot freshness, the writer's pending-window headroom, heap watermark,
// SLO breach state) and answers 503 with per-check JSON detail the moment
// any of them fails, so traffic is steered away before the failure becomes
// user-visible. BeginDrain flips /readyz to 503 *before* the listener
// closes, giving balancers a drain-grace window to stop routing here.

// heapInUseMetric is the runtime/metrics key for live heap bytes — the
// same sample the obsv runtime sampler exports as runtime_heap_bytes.
const heapInUseMetric = "/memory/classes/heap/objects:bytes"

// readyQueueFraction is the share of the ingest queue (Config.QueueCap)
// whose filling fails the /readyz ingest-queue check: a queue this full is
// about to answer 429.
const readyQueueFraction = 0.9

// evalReady evaluates graphd's one check list now. With all set it reports
// every check with its evidence, the /readyz payload; without, only the
// failing ones, what shard.meta carries. A check's evidence is formatted
// only when it is reported, so a ready shard's meta answer allocates
// nothing.
func (s *Server) evalReady(all bool) wire.Readiness {
	e := readyEval{all: all, r: wire.Readiness{Ready: true}}

	if name, ok, detail := s.drainCheck(); e.report(name, ok) {
		e.detail(detail)
	}

	depth, limit := len(s.queue), int(readyQueueFraction*float64(s.cfg.QueueCap))
	if e.report("ingest-queue", depth < limit) {
		e.detail(fmt.Sprintf("depth %d/%d (limit %d)", depth, s.cfg.QueueCap, limit))
	}

	if s.cfg.SnapshotPath != "" && s.cfg.SnapshotEvery > 0 {
		maxAge := 3 * s.cfg.SnapshotEvery
		age := time.Since(s.lastPersistTime())
		if e.report("snapshot-age", age <= maxAge) {
			e.detail(fmt.Sprintf("last persist %s ago (max %s)", age.Round(time.Millisecond), maxAge))
		}
	} else if e.report("snapshot-age", true) {
		e.detail("persistence disabled")
	}

	// The window holds the edits no published bundle reflects. That lag
	// matters only while readers wait on the writer; an unread stretch may
	// outgrow the bound, and its next reader pays one full recompute.
	pending, bound := int(s.pendingEdits.Load()), s.cfg.MaxPendingEdits
	limit, unread := bound*9/10, !s.cur.Load().read.Load()
	if e.report("incr-pending", pending < limit || unread) {
		e.detail(fmt.Sprintf("pending edits %d/%d (limit %d, published bundle unread %v)", pending, bound, limit, unread))
	}

	if maxHeap := s.cfg.ReadyMaxHeapBytes; maxHeap > 0 {
		heap := heapInUseBytes()
		if e.report("heap", heap <= maxHeap) {
			e.detail(fmt.Sprintf("heap %d/%d bytes", heap, maxHeap))
		}
	} else if e.report("heap", true) {
		e.detail("no heap watermark configured")
	}

	worst := s.slo.Worst()
	if e.report("slo", worst != slo.StateBreaching) {
		switch {
		case worst == slo.StateBreaching:
			e.detail(fmt.Sprintf("breaching objectives: %v", s.slo.Breaching()))
		case s.slo == nil:
			e.detail("no objectives configured")
		default:
			e.detail("worst objective state: " + worst.String())
		}
	}
	return e.r
}

// readyEval is one evalReady in progress.
type readyEval struct {
	all bool
	r   wire.Readiness
}

// report folds one verdict into the evaluation and reports whether the
// check is reported; if so, the caller gives its evidence to detail.
func (e *readyEval) report(name string, ok bool) bool {
	e.r.Ready = e.r.Ready && ok
	if ok && !e.all {
		return false
	}
	e.r.Checks = append(e.r.Checks, wire.ReadyCheck{Name: name, OK: ok})
	return true
}

// detail sets the evidence of the check report last took.
func (e *readyEval) detail(d string) { e.r.Checks[len(e.r.Checks)-1].Detail = d }

// failing joins the failing checks of r as "name: detail; ...", the Detail
// of a shard.meta answer ("" when r is ready).
func failing(r wire.Readiness) string {
	var parts []string
	for _, c := range r.Checks {
		if !c.OK {
			parts = append(parts, c.Name+": "+c.Detail)
		}
	}
	return strings.Join(parts, "; ")
}

// lastPersistTime is when the last snapshot landed (process start before
// the first persist, so a fresh daemon is not instantly stale).
func (s *Server) lastPersistTime() time.Time {
	if ns := s.lastPersist.Load(); ns != 0 {
		return time.Unix(0, ns)
	}
	return s.started
}

// heapInUseBytes samples live heap occupancy from runtime/metrics.
func heapInUseBytes() uint64 {
	sample := []metrics.Sample{{Name: heapInUseMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// handleSLO serves the SLO engine's self-evaluation (nil-safe: a daemon
// with no objectives reports enabled=false, worst=ok).
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Status())
}
