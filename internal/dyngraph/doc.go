// Package dyngraph provides the mutable graph substrate for streaming
// analytics: a STINGER-inspired blocked adjacency store supporting edge
// insertion, deletion, timestamps, and O(degree) neighbor iteration, plus
// snapshotting into the immutable CSR form for batch kernels. That CSR form
// is also what persists: graphd writes it as a flat snapshot
// (internal/wire/snapfmt) and recovers by bulk-loading it (FromCSRGraph).
//
// The paper's streaming path (Fig. 2, left side) performs "incremental
// targeted graph updates" against the persistent graph; this package is
// that persistent, update-in-place representation.
//
// # Concurrency contract (single writer)
//
// DynGraph is not safe for concurrent mutation, by design — it matches the
// single-writer model of STINGER's update batches. Exactly one goroutine
// may mutate the graph (InsertEdge/DeleteEdge/ApplyEdits); the
// streaming engine and the graphd ingest loop are such writers, each
// serializing its updates. Readers must be excluded while a write is in
// flight (internal/server reads only the snapshots its writer publishes).
// Snapshot produces an immutable *graph.Graph that is
// safe to share with any number of concurrent readers and parallel
// kernels; batch analytics always run against snapshots, never against
// the live structure.
//
// Snapshot output is deterministic for a given update history: adjacency
// is emitted in block order, which depends only on the sequence of applied
// inserts and deletes, so two graphs with identical histories produce
// byte-identical CSR snapshots (the property the graphd restore test
// leans on).
package dyngraph
