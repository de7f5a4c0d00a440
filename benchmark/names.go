package main

// The names in this file are the benchmark's public vocabulary: every later
// performance claim is "metric X on workload Y" in these words, and
// BENCHMARK.json repeats them (manifest_test.go holds the two in step).

// Workload names.
const (
	wlServeRead    = "serve-read"
	wlServeChurn   = "serve-churn"
	wlClusterMixed = "cluster-mixed"
	wlBatchKernels = "batch-kernels"
)

// workloadDef is one workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wlServeRead, "one graphd on an R-MAT s16 snapshot, wire protocol, reads only: p50 is the wire+server shell, p99 and CPU are the khop/jaccard kernels; dyngraph and incr idle"},
	{wlServeChurn, "one graphd on R-MAT s15 over HTTP/JSON with 0.5% ingest batches in the mix: every batch bumps the version so reads pay dyngraph.SnapshotDelta and incr advances; no traversals"},
	{wlClusterMixed, "graphctl over 2 graphd shards bulk-loaded with R-MAT s14, reads only: every timed op crosses coordinator-to-shard wire hops; the BSP gathers run once, in set-up, and show in setup_s only"},
	{wlBatchKernels, "in-process GAP-style trials of eight kernel classes balanced to equal time: kernels, par, scratch, matrix and graph do all the work, serving layers none"},
}

// metricDef is one metric as the manifest declares it. Bound is the share
// of the parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// The six metrics every workload measures of the system as a whole.
const (
	mSetup   = "setup_s"
	mOps     = "ops_per_s"
	mP50     = "op_p50_us"
	mP99     = "op_p99_us"
	mCPU     = "cpu_ms_per_op"
	mAllocKB = "alloc_kb_per_op"
)

// endToEnd are the system metrics that carry a bound. The rule is the
// issue's: a bound is twice the widest spread (interquartile range over
// median of ten runs, each with another seed) seen on any workload, and a
// metric whose bound would pass 0.20 is demoted to per-layer. Allocation per
// op spreads at most 9%, on serve-churn, where graphd's 25ms flush timer
// decides how many snapshot patches an ingest costs; its bound is 0.20.
// Every time-based metric spreads 4-12% while the reference box is quiet
// and 10-22% (op_p99_us: 50-500%) in the minutes in which it is not, with
// medians moving 15% from one sweep to the next, so ops_per_s, op_p50_us,
// op_p99_us and cpu_ms_per_op are demoted: every run still measures and
// prints them, the traced run reports them, and they veto nothing. setup_s
// is end-to-end by contract, with the contract's widest bound. README,
// "Reference numbers", has the sweeps.
var endToEnd = []metricDef{
	{mSetup, "s", "lower", 0.25},
	{mAllocKB, "KiB", "lower", 0.20},
}

// systemLayer is the layer name of the demoted system metrics.
const systemLayer = "system"

// layerMetric is one per-layer metric with the prediction the issue asks to
// be written down before measuring: which of the six system metrics it
// should move and on which workloads.
type layerMetric struct {
	metricDef
	Layer string
	Moves []string
	On    []string
}

func lm(layer, name, unit, better string, moves, on []string) layerMetric {
	return layerMetric{metricDef{Name: name, Unit: unit, Better: better}, layer, moves, on}
}

var (
	allWorkloads = []string{wlServeRead, wlServeChurn, wlClusterMixed, wlBatchKernels}
	serveBoth    = []string{wlServeRead, wlServeChurn}
	wireUsers    = []string{wlServeRead, wlClusterMixed}
	onlyRead     = []string{wlServeRead}
	onlyChurn    = []string{wlServeChurn}
	onlyCluster  = []string{wlClusterMixed}
	onlyBatch    = []string{wlBatchKernels}

	movesSetup   = []string{mSetup}
	movesShell   = []string{mP50, mOps, mAllocKB}
	movesChurn   = []string{mP50, mCPU}
	movesIncr    = []string{mP99, mOps}
	movesKernel  = []string{mOps, mP50, mP99}
	movesTravers = []string{mP99, mCPU}
	movesCluster = []string{mP50, mP99}
	movesNothing = []string{}
)

var perLayer = []layerMetric{
	lm(systemLayer, mOps, "ops/s", "higher", movesNothing, allWorkloads),
	lm(systemLayer, mP50, "us", "lower", movesNothing, allWorkloads),
	lm(systemLayer, mP99, "us", "lower", movesNothing, allWorkloads),
	lm(systemLayer, mCPU, "ms", "lower", movesNothing, allWorkloads),

	lm("gen", "gen.rmat_ms", "ms", "lower", movesNothing, allWorkloads),
	lm("graph", "graph.build_ms", "ms", "lower", movesSetup, onlyBatch),

	lm("wire", "wire.ping_rtt_us", "us", "lower", movesShell, wireUsers),
	lm("wire", "wire.encode_req_ns", "ns", "lower", movesShell, wireUsers),
	lm("wire", "wire.decode_resp_ns", "ns", "lower", movesShell, wireUsers),
	lm("wire", "wire.khop_resp_bytes", "B", "lower", movesShell, wireUsers),

	lm("wire/snapfmt", "snapfmt.write_ms", "ms", "lower", movesNothing, serveBoth),
	lm("wire/snapfmt", "snapfmt.read_ms", "ms", "lower", movesSetup, serveBoth),
	lm("wire/snapfmt", "snapfmt.read_alloc_mb", "MiB", "lower", movesSetup, serveBoth),
	lm("wire/snapfmt", "snapfmt.bytes_per_arc", "B", "lower", movesSetup, serveBoth),

	lm("server", "server.component_p50_us", "us", "lower", movesShell, serveBoth),
	lm("server", "server.pagerank_p50_us", "us", "lower", movesShell, serveBoth),
	lm("server", "server.topdegree_p50_us", "us", "lower", movesShell, serveBoth),
	lm("server", "server.khop2_p50_us", "us", "lower", movesTravers, onlyRead),
	lm("server", "server.jaccard_p50_us", "us", "lower", movesTravers, onlyRead),
	lm("server", "server.http_ping_us", "us", "lower", movesChurn, onlyChurn),
	lm("server", "server.shell_us", "us", "lower", movesShell, onlyRead),
	lm("server", "server.ingest_us_per_edit", "us", "lower", movesChurn, onlyChurn),
	lm("server", "server.ingest_reject_frac", "frac", "lower", movesChurn, onlyChurn),
	lm("server", "server.visibility_ms", "ms", "lower", movesChurn, onlyChurn),
	lm("server", "server.ingest_keps", "kedits/s", "higher", movesChurn, onlyChurn),
	lm("server", "server.recover_ms", "ms", "lower", movesSetup, serveBoth),
	lm("server", "server.persist_ms", "ms", "lower", movesNothing, serveBoth),
	lm("server", "server.rss_peak_mb", "MiB", "lower", movesNothing, serveBoth),
	lm("server", "server.gc_pause_ms_per_s", "ms/s", "lower", []string{mP99}, serveBoth),

	lm("dyngraph", "dyngraph.from_csr_ms", "ms", "lower", movesSetup, serveBoth),
	lm("dyngraph", "dyngraph.apply_us_per_edit", "us", "lower", movesChurn, onlyChurn),
	lm("dyngraph", "dyngraph.snapshot_ms", "ms", "lower", movesChurn, onlyChurn),
	lm("dyngraph", "dyngraph.snapshot_delta_ms", "ms", "lower", movesChurn, onlyChurn),
	lm("dyngraph", "dyngraph.delta_rows_per_batch", "count", "lower", movesChurn, onlyChurn),

	lm("incr", "incr.wcc_advance_us", "us", "lower", movesIncr, onlyChurn),
	lm("incr", "incr.deg_advance_us", "us", "lower", movesIncr, onlyChurn),
	lm("incr", "incr.pr_advance_ms", "ms", "lower", movesIncr, onlyChurn),
	lm("incr", "incr.pr_sweeps_per_batch", "count", "lower", movesIncr, onlyChurn),
	lm("incr", "incr.pr_vs_full_ratio", "ratio", "lower", movesIncr, onlyChurn),

	lm("kernels", "kernels.khop2_us_p50", "us", "lower", movesTravers, onlyRead),
	lm("kernels", "kernels.khop2_us_p99", "us", "lower", movesTravers, onlyRead),
	lm("kernels", "kernels.jaccard_vertex_us_p50", "us", "lower", movesTravers, onlyRead),
	lm("kernels", "kernels.jaccard_vertex_us_p99", "us", "lower", movesTravers, onlyRead),
	lm("kernels", "kernels.topk_degree_us", "us", "lower", movesSetup, serveBoth),
	lm("kernels", "kernels.bfs_ms", "ms", "lower", movesKernel, onlyBatch),
	lm("kernels", "kernels.bfs_mteps", "Mteps", "higher", movesKernel, onlyBatch),
	lm("kernels", "kernels.sssp_ms", "ms", "lower", movesKernel, onlyBatch),
	lm("kernels", "kernels.wcc_ms", "ms", "lower", []string{mOps, mP50, mP99, mSetup}, []string{wlBatchKernels, wlServeRead, wlServeChurn}),
	lm("kernels", "kernels.kcore_ms", "ms", "lower", movesKernel, onlyBatch),
	lm("kernels", "kernels.kcore_allocs", "count", "lower", []string{mAllocKB}, onlyBatch),
	lm("kernels", "kernels.pagerank_ms", "ms", "lower", []string{mOps, mP50, mP99, mSetup}, []string{wlBatchKernels, wlServeRead, wlServeChurn}),
	lm("kernels", "kernels.pagerank_iters", "count", "lower", movesKernel, onlyBatch),
	lm("kernels", "kernels.triangles_ms", "ms", "lower", movesKernel, onlyBatch),
	lm("kernels", "kernels.jaccard_topk_ms", "ms", "lower", movesKernel, onlyBatch),
	lm("matrix", "matrix.spgemm_ms", "ms", "lower", movesKernel, onlyBatch),
	lm("matrix", "matrix.spgemm_alloc_mb", "MiB", "lower", []string{mAllocKB}, onlyBatch),

	lm("par", "par.speedup_pagerank", "ratio", "higher", []string{mOps}, onlyBatch),
	lm("par", "par.speedup_bfs", "ratio", "higher", []string{mOps}, onlyBatch),
	lm("par", "par.speedup_triangles", "ratio", "higher", []string{mOps}, onlyBatch),

	lm("cluster", "cluster.point_p50_us", "us", "lower", movesCluster, onlyCluster),
	lm("cluster", "cluster.direct_p50_us", "us", "lower", movesCluster, onlyCluster),
	lm("cluster", "cluster.hop_overhead_us", "us", "lower", movesCluster, onlyCluster),
	lm("cluster", "cluster.khop2_p50_us", "us", "lower", movesCluster, onlyCluster),
	lm("cluster", "cluster.jaccard_p50_us", "us", "lower", movesCluster, onlyCluster),
	// cluster-mixed does not write, so its timed phases gather nothing: the
	// BSP and ingest paths run in its set-up only.
	lm("cluster", "cluster.bsp_pagerank_ms", "ms", "lower", movesSetup, onlyCluster),
	lm("cluster", "cluster.bsp_wcc_ms", "ms", "lower", movesSetup, onlyCluster),
	lm("cluster", "cluster.ingest_us_per_edit", "us", "lower", movesSetup, onlyCluster),
	lm("cluster", "cluster.skew_retry_frac", "frac", "lower", movesNothing, onlyCluster),

	lm("loadgen", "loadgen.late_p99_us", "us", "lower", movesNothing, allWorkloads),
	lm("loadgen", "loadgen.cpu_frac", "frac", "lower", movesNothing, allWorkloads),
	lm("loadgen", "trace.overhead_frac", "frac", "lower", movesNothing, allWorkloads),
}
