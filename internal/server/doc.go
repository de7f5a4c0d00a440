// Package server is the long-running serving layer over the paper's Fig. 2
// canonical flow: one persistent dyngraph.DynGraph continuously fed by a
// streaming ingest path while a concurrent query API re-mines it — the
// "continuously operating system" the one-shot cmds (flowdemo, graphbench
// streams) only sample. cmd/graphd is the daemon binary.
//
// Concurrency contract (one writer publishes, readers pin):
//
//   - The ingest goroutine is the only writer of the dynamic graph and the
//     only builder of what queries read: after applying a window of queued
//     edits it builds the next immutable bundle — the CSR snapshot patched
//     over the window plus every kernel result a reader ever asked for (WCC,
//     PageRank, degrees), advanced over it — and publishes it with one
//     atomic store. A version bump costs freshness, not read latency.
//   - It builds only while the published bundle has been read since
//     publication; /stats version and applied then move at publish. After an
//     unread stretch (boot, bulk load, quiet spell) they move at apply, and
//     the first reader waits once for a catch-up build, as does a kernel's
//     first reader. A read sent after /stats shows applied = N sees all N
//     updates; a deadline ends the wait, never the build.
//   - A request pins the bundles it reads (increment, then revalidate) until
//     reqTrace.finish, so results may alias them until encoded. The writer
//     reuses what unpinned retired bundles held — row index, arena once all
//     its versions are released, labels, sizes, rank and degree vectors — so
//     live storage is the published bundle, pinned ones and a spare arena.
//   - Results inherit par's determinism: one version answers byte-identically
//     whatever the worker count or whichever request asked for the build.
//
// Production mechanics:
//
//   - Backpressure: the ingest queue is bounded; when it fills, POST
//     /ingest returns 429 with Retry-After instead of buffering unboundedly
//     (memory stays bounded by queue capacity + one batch).
//   - Admission control: query execution is gated by a semaphore sized to
//     the par scheduler's worker budget, so concurrent queries cannot
//     oversubscribe the pool the kernels fan out through. Waiting for
//     admission respects the request deadline.
//   - Deadlines: every query runs under a context deadline (client-supplied
//     ?timeout=, clamped, defaulted). Expiry returns 504; a traversal kernel
//     (khop, jaccard) stops at its next cancellation check, a wait for the
//     writer's build stops at once.
//   - Durability: the published snapshot is persisted in the flat format
//     (internal/wire/snapfmt) periodically and on graceful shutdown (atomic
//     tmp+rename, never a torn file), and recovered on restart. Shutdown
//     drains the ingest queue before the final snapshot, so
//     acknowledged-and-queued updates are not lost on SIGTERM.
//   - Observability: every request runs under a telemetry span, the
//     server_* metric families land on the shared registry, and the
//     registry's own HTTP handler (/metrics, /metrics.json, /debug/...) is
//     mounted on the same listener.
//
// The HTTP front end (frontend.go) is not graphd's alone: cmd/graphctl
// serves the same one over a cluster.Coordinator (ClusterHandler), so a
// request through the cluster is parsed, traced, staged, encoded and
// counted by the code that serves it here. Its one answer path (answer.go)
// checks every query and builds every answer for both, over a backend
// that only reads state: graphd's published bundles or the coordinator's
// shards.
package server
