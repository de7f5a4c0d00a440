package server

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// watermark tracks a running maximum and publishes it as a gauge. observe
// is lock-free and allocation-free (CAS loop), so it can sit on the
// request and ingest hot paths; the gauge only moves when a new high-water
// mark is set, which is rare once the process warms up.
type watermark struct {
	g   *telemetry.Gauge
	cur atomic.Int64
}

// observe raises the watermark to v if v is a new maximum.
func (w *watermark) observe(v int64) {
	for {
		cur := w.cur.Load()
		if v <= cur {
			return
		}
		if w.cur.CompareAndSwap(cur, v) {
			w.g.Set(float64(v))
			return
		}
	}
}

// Metric families published by the server, all on the registry passed in
// Config (shared with par_*, runtime_* and the rest of the process). Each
// is cited by docs/OPERATIONS.md, which internal/lint checks:
//
//	server_ingest_rejected_total            updates refused with 429 (queue full)
//	server_ingest_apply_seconds             batch application latency
//	server_ingest_queue_depth               current queue occupancy (gauge)
//	server_ingest_queue_depth_hwm           deepest queue occupancy seen (gauge)
//	server_queries_total{op,code}           queries by endpoint and HTTP status
//	server_request_errors_total{op}         5xx responses by endpoint (SLO
//	                                        availability numerator; 429 and 4xx
//	                                        spend no budget)
//	server_query_seconds{op}                end-to-end query latency (its count
//	                                        is the SLO availability denominator)
//	server_admission_inflight_hwm           most queries ever admitted at once
//	                                        (gauge; saturation vs -workers)
//	server_admission_wait_seconds           time spent waiting for a query slot
//	server_snapshot_rebuilds_total          full CSR snapshot rebuilds by the writer
//	server_snapshot_patches_total           incremental CSR snapshot patches by the
//	                                        writer (touched rows only)
//	server_snapshot_age_seconds             age of the published snapshot (gauge)
//	server_stage_seconds{endpoint,stage}    per-request lifecycle stage latency;
//	                                        stages sum to request wall time
//	                                        ("other" absorbs the remainder; on
//	                                        reads, "snapshot"/"kernel" wait for a build)
//	server_cache_hit_total{kernel}          reads served from a published result
//	server_cache_rebuilds_total{kernel}     full recomputes by the writer (a first
//	                                        read waits on one as cache=miss)
//	server_incr_advances_total{kernel}      incremental state advances over the
//	                                        delta window, by the writer
//	server_incr_fallbacks_total{kernel}     window overflows that forced a full
//	                                        recompute and state re-anchor
//	server_incr_pending_batches             batches applied since the published
//	                                        version (gauge)
//	server_slow_queries_total{endpoint}     requests over the slow-query threshold
//	server_wire_connections_total           wire-protocol sessions accepted
//	server_wire_connections_active          open wire-protocol sessions (gauge)
//	server_persist_total                    snapshot files written
//	server_persist_seconds                  snapshot write latency
//	server_ready                            readiness as 1/0 (gauge; mirrors the
//	                                        last /readyz evaluation)
//
// The slo_* families (slo_state, slo_burn_rate, slo_transitions_total) are
// documented in internal/slo, the prof_* families in internal/prof.
// graphctl, serving the same front end, exports the request families —
// server_queries_total, server_request_errors_total, server_query_seconds,
// server_stage_seconds, server_slow_queries_total — and none of the rest.
type metricsSet struct {
	rejected *telemetry.Counter
	applySec *telemetry.Histogram
	depth    *telemetry.Gauge
	depthHWM watermark

	inflightHWM watermark
	ready       *telemetry.Gauge
	admitWait   *telemetry.Histogram
	rebuilds    *telemetry.Counter
	snapPatches *telemetry.Counter
	snapAge     *telemetry.Gauge

	// Per kernel (index: kernel; partGraph unused): reads served from a published result,
	// full recomputes, incremental advances, window overflows.
	kernHits      [numParts]*telemetry.Counter
	kernRebuilds  [numParts]*telemetry.Counter
	kernAdvances  [numParts]*telemetry.Counter
	kernFallbacks [numParts]*telemetry.Counter

	pendingDeltas *telemetry.Gauge

	persists   *telemetry.Counter
	persistSec *telemetry.Histogram

	wireConnsTotal *telemetry.Counter
	wireActive     *telemetry.Gauge
}

func newMetricsSet(reg *telemetry.Registry) *metricsSet {
	m := &metricsSet{
		rejected: reg.Counter("server_ingest_rejected_total"),
		applySec: reg.Histogram("server_ingest_apply_seconds"),
		depth:    reg.Gauge("server_ingest_queue_depth"),

		admitWait:   reg.Histogram("server_admission_wait_seconds"),
		rebuilds:    reg.Counter("server_snapshot_rebuilds_total"),
		snapPatches: reg.Counter("server_snapshot_patches_total"),
		snapAge:     reg.Gauge("server_snapshot_age_seconds"),

		pendingDeltas: reg.Gauge("server_incr_pending_batches"),

		persists:   reg.Counter("server_persist_total"),
		persistSec: reg.Histogram("server_persist_seconds"),
		ready:      reg.Gauge("server_ready"),

		wireConnsTotal: reg.Counter("server_wire_connections_total"),
		wireActive:     reg.Gauge("server_wire_connections_active"),
	}
	for k := kernWCC; k < numParts; k++ {
		l := telemetry.L("kernel", kernelNames[k])
		m.kernHits[k] = reg.Counter("server_cache_hit_total", l)
		m.kernRebuilds[k] = reg.Counter("server_cache_rebuilds_total", l)
		m.kernAdvances[k] = reg.Counter("server_incr_advances_total", l)
		m.kernFallbacks[k] = reg.Counter("server_incr_fallbacks_total", l)
	}
	m.depthHWM.g = reg.Gauge("server_ingest_queue_depth_hwm")
	m.inflightHWM.g = reg.Gauge("server_admission_inflight_hwm")
	return m
}

// countQuery resolves the labeled handles for one (endpoint, status)
// pair. Handles are cheap to resolve (registry lookup) relative to query
// cost, so no per-op cache is kept. Besides the per-code counter it feeds
// the SLO families: every request into the latency histogram, whose count is
// the availability denominator, 5xx into the numerator (backpressure and
// client errors spend no budget).
func (fe *frontEnd) countQuery(op string, code int, seconds float64) {
	opL := telemetry.L("op", op)
	fe.reg.Counter("server_queries_total", opL, telemetry.L("code", httpCodeLabel(code))).Inc()
	if code >= 500 {
		fe.reg.Counter("server_request_errors_total", opL).Inc()
	}
	fe.reg.Histogram("server_query_seconds", opL).Observe(seconds)
}
