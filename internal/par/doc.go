// Package par is the repository's shared parallel substrate: one worker-pool
// scheduler that every batch kernel and matrix operation fans out through
// instead of hand-rolling sync.WaitGroup chunking. The paper's NORA model
// (Figs. 3 & 6) assumes each CPU-bound analytic step saturates the cores;
// par is the single place where that saturation is implemented, measured,
// and tuned.
//
// Design:
//
//   - Work is an index range [0, n) split into fixed chunks. Workers pull
//     chunks off a shared atomic cursor ("work-stealing-lite"): cheap dynamic
//     load balancing without per-task channels or deques.
//   - Chunk boundaries depend only on n (and an explicit Grain override),
//     never on the worker count. Primitives that combine per-chunk results
//     (Chunks, Reduce) therefore produce byte-identical output for any
//     worker count — including floating-point reductions, which are folded
//     in chunk-index order. This is what makes the differential and
//     determinism suites in internal/kernels possible.
//   - The worker count defaults to runtime.GOMAXPROCS and is configurable
//     process-wide (SetDefaultWorkers, the -workers flag via RegisterFlags)
//     or per call site (Opt.Workers).
//   - Every invocation publishes telemetry into internal/telemetry:
//     invocation/task/chunk counters, wall-time and imbalance histograms,
//     labeled by the call site's Opt.Name.
//
// For n below a small threshold or one worker, primitives run inline on the
// calling goroutine (still chunk-by-chunk, preserving determinism).
//
// # Determinism contract
//
// A run that completes produces output that depends only on (n, Opt.Grain)
// and the body — never on the worker count, chunk interleaving, or wall
// time. Bodies receive disjoint index ranges; any cross-chunk combination
// the package performs (Chunks, Reduce) happens in chunk-index order.
//
// Frontier is the one exception, and says so: it flushes each chunk's
// output into the caller's slice as the chunk completes, so the order of
// what a pass collects follows the schedule. That buys level-synchronous
// kernels a frontier that costs O(workers) one-chunk buffers for the whole
// run instead of a slice per chunk per level, and it is only for kernels
// whose output provably cannot see the order — BFS parents are a CAS-min, core numbers a confluent fixpoint,
// SSSP distances a unique fixpoint with a deterministic parent post-pass.
// The worker-count determinism suite in internal/kernels is the guard.
//
// # Scratch and results
//
// Per-worker state is a slice indexed by the worker id ForW passes, filled
// on a worker's first chunk. Whatever a kernel returns is allocated for the
// caller, exact-size where the size can be counted first; results never
// alias per-worker or pooled scratch, so callers may keep them.
//
// # Cancellation contract (ForCtx, ChunksCtx, AppendChunksCtx, ReduceCtx)
//
// There is one scheduler core, and it is cancellable: For, Chunks and
// Reduce are ForCtx, ChunksCtx and ReduceCtx under context.Background(),
// and ForW runs the same core, so a one-worker run costs one inline loop
// and a multi-worker run one shared fanout allocation either way. The ctx forms
// serve request traffic (internal/server) and long batch kernels alike
// (PageRank, WCC): workers
// observe cancellation at chunk boundaries, so after a deadline no worker
// executes more than the single chunk it already held — overshoot is
// bounded to one chunk per worker, and the skipped remainder is visible in
// Totals.Cancellations / Totals.SkippedChunks and the
// par_cancellations_total / par_chunks_skipped_total metric families.
// Checks go through CtxErr, which compares time.Now() against the context
// deadline directly as well as selecting on Done(), so expiry is enforced
// even when a single-P runtime never preempts the running kernel to fire
// the context's timer. A completed ctx run is byte-identical to its
// non-ctx counterpart; a cancelled run returns ctx's error and the caller
// must discard any partial side effects (AppendChunksCtx hands back dst as
// it was passed).
package par
