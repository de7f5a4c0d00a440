// Package streaming implements the paper's streaming graph analytics: the
// three Firehose-style anomaly kernels (fixed key, unbounded key, two-level
// key), incremental triangle counting, streaming Jaccard in both of the
// paper's forms (edge-update driven and query-stream driven), and the
// threshold-trigger machinery that escalates local stream events into
// batch analytics (Fig. 2's left-hand path). Connected components and
// top-k degree under streaming edits are internal/incr's WCCState and
// DegreeState, which graphd serves from.
//
// # Concurrency and determinism contract
//
// Every engine in this package is single-writer: updates are applied one
// at a time from one goroutine (a graph update is a dyngraph.Edit, applied
// through DynGraph.ApplyEdits), mirroring the update-stream semantics of
// the paper (a totally ordered stream of edge/property events). None of
// the incremental structures are safe for concurrent mutation — a caller
// that wants concurrent ingest must serialize in front (the graphd ingest
// queue in internal/server is that serialization). In return the results
// are deterministic in the stream order: feeding the same update sequence
// twice yields identical counters, Jaccard scores, and trigger firings,
// which is what the streaming differential tests assert against batch
// recomputation.
package streaming
