// Package flow implements the paper's canonical graph processing flow
// (Fig. 2), the combined batch + streaming pipeline over one persistent
// property graph:
//
//	bulk data ──dedup──▶ persistent graph ◀──stream of updates
//	                         │       ▲  └─ triggers (threshold crossings)
//	  selection criteria ─▶ seeds    │            │
//	                         ▼       │            ▼
//	                 subgraph extraction (+ projection)
//	                         ▼       │
//	                  batch analytic ─┴─▶ property write-back / alerts
//
// The persistent graph is bulk-loaded from a base graph by
// dyngraph.FromCSRGraph, graphd's recovery path. The stream of updates is
// dyngraph.Edits, each applied through DynGraph.ApplyEdits by the
// streaming engine.
//
// The engine is explicitly instrumented: every stage reports operation
// counts and wall time through the shared internal/telemetry registry,
// providing the "reference implementation, with explicit instrumentation,
// of a combined benchmark" the paper's conclusion calls for. Stats is a
// read-only view over those registry metrics, and each composed stage runs
// under a recorded span, so a flow's full activity can be exported as a
// JSON-lines artifact or scraped live from /metrics.
//
// # Concurrency and determinism contract
//
// A Flow follows the same single-writer model as the dyngraph underneath
// it: stage methods (build, stream-in, extract, analytic, write-back) must
// be invoked from one goroutine at a time — the one-shot cmds call them
// sequentially; a serving layer needs its own serialization
// (internal/server uses its ingest loop plus snapshot isolation instead of
// driving a Flow directly). Stats and the alert accessors are safe to call
// concurrently with stage execution: instrumentation lives in the
// registry's atomic counters and the alert list is mutex-guarded. Batch
// analytics dispatched by a flow run through internal/kernels on immutable
// snapshots and inherit the par package's worker-count-independent
// determinism.
package flow
