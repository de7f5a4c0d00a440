package server

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"time"

	"repro/internal/slo"
)

// Liveness vs readiness. /healthz is pure liveness: it answers 200 for as
// long as the process can serve HTTP at all, including during a drain —
// restarting a draining process loses queued updates, so the liveness
// probe must not fire there. /readyz is the load-balancer signal: it
// aggregates component checks (drain state, ingest-queue headroom,
// snapshot freshness, incremental delta-log headroom, heap watermark, SLO
// breach state) and answers 503 with per-check JSON detail the moment any
// of them fails, so traffic is steered away before the failure becomes
// user-visible. BeginDrain flips /readyz to 503 *before* the listener
// closes, giving balancers a drain-grace window to stop routing here.

// heapInUseMetric is the runtime/metrics key for live heap bytes — the
// same sample the obsv runtime sampler exports as runtime_heap_objects_bytes.
const heapInUseMetric = "/memory/classes/heap/objects:bytes"

// ReadyCheck is one component check inside a Readiness evaluation.
type ReadyCheck struct {
	// Name identifies the check ("draining", "ingest-queue", "snapshot-age",
	// "incr-pending", "heap", "slo").
	Name string `json:"name"`
	// OK reports whether the component is within its healthy envelope.
	OK bool `json:"ok"`
	// Detail is the human-readable evidence ("depth 120/65536", ...).
	Detail string `json:"detail"`
}

// Readiness is the /readyz payload: the verdict and its evidence.
type Readiness struct {
	// Ready is the conjunction of all checks.
	Ready bool `json:"ready"`
	// Checks are the per-component evaluations, in fixed order.
	Checks []ReadyCheck `json:"checks"`
}

// Readiness evaluates every readiness check now. It is also the /readyz
// core; exported so embedders (and tests) can consult the model directly.
func (s *Server) Readiness() Readiness {
	var r Readiness
	r.Ready = true
	add := func(name string, ok bool, detail string) {
		r.Checks = append(r.Checks, ReadyCheck{Name: name, OK: ok, Detail: detail})
		r.Ready = r.Ready && ok
	}

	if s.draining.Load() {
		add("draining", false, "server is draining")
	} else {
		add("draining", true, "accepting work")
	}

	depth, limit := len(s.queue), int(s.readyQueueFraction()*float64(s.cfg.QueueCap))
	add("ingest-queue", depth < limit,
		fmt.Sprintf("depth %d/%d (limit %d)", depth, s.cfg.QueueCap, limit))

	if s.cfg.SnapshotPath != "" && s.cfg.SnapshotEvery > 0 {
		maxAge := s.cfg.ReadySnapshotMaxAge
		if maxAge <= 0 {
			maxAge = 3 * s.cfg.SnapshotEvery
		}
		age := time.Since(s.lastPersistTime())
		add("snapshot-age", age <= maxAge,
			fmt.Sprintf("last persist %s ago (max %s)", age.Round(time.Millisecond), maxAge))
	} else {
		add("snapshot-age", true, "persistence disabled")
	}

	// The log holds the edits no published bundle reflects. That lag matters
	// only while readers wait on the writer; an unread stretch may fill the
	// log, and its next reader pays one full recompute.
	_, pending := s.deltas.Len()
	limit, unread := s.deltas.Cap()*9/10, !s.cur.Load().read.Load()
	add("incr-pending", pending < limit || unread,
		fmt.Sprintf("pending edits %d/%d (limit %d, published bundle unread %v)", pending, s.deltas.Cap(), limit, unread))

	if maxHeap := s.cfg.ReadyMaxHeapBytes; maxHeap > 0 {
		heap := heapInUseBytes()
		add("heap", heap <= maxHeap, fmt.Sprintf("heap %d/%d bytes", heap, maxHeap))
	} else {
		add("heap", true, "no heap watermark configured")
	}

	switch worst := s.slo.Worst(); worst {
	case slo.StateBreaching:
		add("slo", false, fmt.Sprintf("breaching objectives: %v", s.slo.Breaching()))
	default:
		detail := "no objectives configured"
		if s.slo != nil {
			detail = "worst objective state: " + worst.String()
		}
		add("slo", true, detail)
	}
	return r
}

// readyQueueFraction resolves Config.ReadyQueueFraction (default 0.9).
func (s *Server) readyQueueFraction() float64 {
	if f := s.cfg.ReadyQueueFraction; f > 0 && f <= 1 {
		return f
	}
	return 0.9
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

// BeginDrain marks the server not-ready without stopping anything: /readyz
// answers 503 and new ingest is refused, but in-flight and new queries
// still complete. Call it on SIGTERM, wait the drain-grace period for load
// balancers to observe the flip, then close the listener and Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// handleSLO serves the SLO engine's self-evaluation (nil-safe: a daemon
// with no objectives reports enabled=false, worst=ok).
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Status())
}
