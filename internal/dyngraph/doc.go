// Package dyngraph provides the mutable graph substrate for streaming
// analytics: an adjacency store of one sorted array per vertex supporting
// edge insertion, deletion, timestamps, O(log degree) lookup and ascending
// neighbor iteration, plus snapshotting into the immutable CSR form for
// batch kernels. That CSR form
// is also what persists: graphd writes it as a flat snapshot
// (internal/wire/snapfmt) and recovers by bulk-loading it (FromCSRGraph).
//
// The paper's streaming path (Fig. 2, left side) performs "incremental
// targeted graph updates" against the persistent graph; this package is
// that persistent, update-in-place representation. A DynGraph is made by
// New or FromCSRGraph and changed only by ApplyEdits, whose Edit is the
// record graphd ingests. Neither stores a self-loop, so every degree and
// edge count agrees with the snapshots taken.
//
// # Concurrency contract (single writer)
//
// DynGraph is not safe for concurrent mutation, by design — it matches the
// single-writer model of STINGER's update batches. Exactly one goroutine
// may call ApplyEdits; the streaming engine and the graphd ingest loop are
// such writers, each serializing its updates. Readers must be excluded while a write is in
// flight (internal/server reads only the snapshots its writer publishes).
// Snapshot produces an immutable *graph.Graph that is
// safe to share with any number of concurrent readers and parallel
// kernels; batch analytics always run against snapshots, never against
// the live structure.
//
// Snapshot output depends only on the edge set and its weights and
// timestamps: every row is kept sorted by target and emitted as it stands,
// so two graphs holding the same edges produce byte-identical CSR
// snapshots (the property the graphd restore test leans on).
//
// # Why sorted arrays
//
// STINGER chains fixed-size blocks per vertex, so an insert must scan the
// whole chain for a duplicate and a snapshot must gather and sort every
// row. A sorted array finds the duplicate by binary search and is already
// in CSR order; its cost is shifting the tail on insert and delete, a
// memmove that stays cheap at the degrees R-MAT streams reach, and growth
// by re-allocation.
package dyngraph
