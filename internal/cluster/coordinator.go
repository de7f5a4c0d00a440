package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/scratch"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Config configures a Coordinator.
type Config struct {
	// Vertices is the shared fixed vertex-ID space; every shard must agree.
	Vertices int32
	// Directed must match the shards' graph orientation.
	Directed bool
	// Shards lists the shards' wire addresses (each graphd's -listen-wire)
	// in partition-index order. Index i of this slice IS shard i:
	// Owner(v, len(Shards)) == i means Shards[i] owns vertex v.
	Shards []string
	// Registry receives cluster_* metrics (nil = metrics off).
	Registry *telemetry.Registry
	// PollInterval is the shard health-poll cadence (default 1s).
	PollInterval time.Duration
	// PageRank overrides the PageRank superstep options; zero-value fields
	// fall back to kernels.DefaultPageRankOptions.
	PageRank kernels.PageRankOptions
}

// badRequestf builds a 400 wire.Error.
func badRequestf(format string, args ...any) error {
	return wire.Errorf(http.StatusBadRequest, format, args...)
}

// errSkew marks a cross-shard snapshot-version mismatch mid-gather. The
// caller retries the whole gather once (the usual cause is an ingest batch
// landing between two shard responses) before surfacing it as a 503.
var errSkew = &wire.Error{Code: http.StatusServiceUnavailable, Msg: "cluster: snapshot version skew across shards"}

// metricsSet holds the coordinator's cluster_* instruments. Requests are
// counted and timed by graphd's front end, which graphctl serves through
// (server_queries_total, server_query_seconds, server_stage_seconds).
//
// Families:
//
//	cluster_shards                     gauge    configured shard count
//	cluster_shards_ready               gauge    shards passing the last poll
//	cluster_ingest_routed_total{shard} counter  edits routed to each shard
//	cluster_ingest_accepted_total      counter  globally accepted edits
//	cluster_ingest_rejected_total      counter  edits past the global prefix
//	cluster_supersteps_total{kernel}   counter  BSP rounds driven
//	cluster_superstep_seconds{kernel}  histogram per-round barrier latency
//	cluster_kernel_rebuilds_total{kernel} counter cache rebuilds (full gathers)
//	cluster_kernel_cache_hits_total{kernel} counter version-vector cache hits
//	cluster_skew_retries_total         counter  gathers retried after skew
//	cluster_stale_serves_total         counter  degraded-mode stale answers
//	cluster_shard_errors_total{shard}  counter  failed shard exchanges
type metricsSet struct {
	reg         *telemetry.Registry
	shards      *telemetry.Gauge
	shardsReady *telemetry.Gauge

	ingestAccepted *telemetry.Counter
	ingestRejected *telemetry.Counter
	skewRetries    *telemetry.Counter
	staleServes    *telemetry.Counter
}

// newMetricsSet registers the static instruments and zeroes the gauges.
func newMetricsSet(reg *telemetry.Registry, shards int) *metricsSet {
	m := &metricsSet{
		reg:            reg,
		shards:         reg.Gauge("cluster_shards"),
		shardsReady:    reg.Gauge("cluster_shards_ready"),
		ingestAccepted: reg.Counter("cluster_ingest_accepted_total"),
		ingestRejected: reg.Counter("cluster_ingest_rejected_total"),
		skewRetries:    reg.Counter("cluster_skew_retries_total"),
		staleServes:    reg.Counter("cluster_stale_serves_total"),
	}
	m.shards.Set(float64(shards))
	m.shardsReady.Set(0)
	return m
}

// ingestRouted counts edits routed to one shard.
func (m *metricsSet) ingestRouted(shard int, n int) {
	m.reg.Counter("cluster_ingest_routed_total", telemetry.L("shard", strconv.Itoa(shard))).Add(int64(n))
}

// superstep records one BSP barrier round for a kernel.
func (m *metricsSet) superstep(kernel string, start time.Time) {
	m.reg.Counter("cluster_supersteps_total", telemetry.L("kernel", kernel)).Inc()
	m.reg.Histogram("cluster_superstep_seconds", telemetry.L("kernel", kernel)).ObserveSince(start)
}

// rebuild counts one full cross-shard gather for a kernel cache.
func (m *metricsSet) rebuild(kernel string) {
	m.reg.Counter("cluster_kernel_rebuilds_total", telemetry.L("kernel", kernel)).Inc()
}

// cacheHit counts one version-vector cache hit for a kernel.
func (m *metricsSet) cacheHit(kernel string) {
	m.reg.Counter("cluster_kernel_cache_hits_total", telemetry.L("kernel", kernel)).Inc()
}

// shardErrors returns the failed-exchange counter for one shard.
func (m *metricsSet) shardErrors(shard int) *telemetry.Counter {
	return m.reg.Counter("cluster_shard_errors_total", telemetry.L("shard", strconv.Itoa(shard)))
}

// versionVec is one snapshot version per shard, in shard order. Two cluster
// reads see the same logical graph iff their vectors are equal, which is
// what keys the coordinator's kernel caches.
type versionVec []int64

// equal reports element-wise equality.
func (a versionVec) equal(b versionVec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sum collapses the vector into the scalar "cluster version" reported in
// query responses: the sum of shard versions, which advances whenever any
// shard applies a batch.
func (a versionVec) sum() int64 {
	var s int64
	for _, v := range a {
		s += v
	}
	return s
}

// State is one whole-graph kernel result at one version vector: what the
// front end answers component, pagerank and topdegree from. A kernel fills
// its own fields; a state is immutable once built.
type State struct {
	vec versionVec
	// Labels are WCC's canonical min-member labels, Sizes its member count
	// per label (indexed by label), Components its component count.
	Labels     []int32
	Sizes      []int64
	Components int32
	// Scores are the degrees — float64, because TopKByScore and the jaccard
	// denominator both consume them, exact far past any degree — or the
	// PageRank ranks.
	Scores []float64
	// Iterations is how many power iterations the ranks took.
	Iterations int
}

// Version is the cluster version the state was built at: the sum of the
// shard versions.
func (s *State) Version() int64 { return s.vec.sum() }

// kernel indexes the coordinator's whole-graph caches.
type kernel int

const (
	kernDeg kernel = iota
	kernWCC
	kernPR
	numKernels
)

// kernelNames label the cache metrics.
var kernelNames = [numKernels]string{"degrees", "wcc", "pagerank"}

// Coordinator fronts a set of graphd shards: it routes point queries to
// owners, drives global kernels as BSP supersteps, fans ingest out along
// the partition, and aggregates shard health. It is safe for concurrent
// use.
type Coordinator struct {
	cfg    Config
	shards []*shardConn
	m      *metricsSet

	// Kernel caches, each valid for exactly one version vector. Guarded by
	// cacheMu; rebuilt on miss by the bsp.go gather/superstep drivers.
	cacheMu sync.Mutex
	cache   [numKernels]*State

	stopCh chan struct{}
	pollWG sync.WaitGroup
	closed sync.Once
}

// New validates cfg, applies defaults, performs one synchronous best-effort
// registration poll (shards may legitimately still be starting), and starts
// the background health-poll loop. Close must be called to stop it.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Vertices <= 0 {
		return nil, fmt.Errorf("cluster: Vertices must be positive, got %d", cfg.Vertices)
	}
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard address required")
	}
	for i, a := range cfg.Shards {
		if a == "" {
			return nil, fmt.Errorf("cluster: shard %d has no wire address", i)
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	def := kernels.DefaultPageRankOptions()
	if cfg.PageRank.Damping == 0 {
		cfg.PageRank.Damping = def.Damping
	}
	if cfg.PageRank.Tolerance == 0 {
		cfg.PageRank.Tolerance = def.Tolerance
	}
	if cfg.PageRank.MaxIters == 0 {
		cfg.PageRank.MaxIters = def.MaxIters
	}

	c := &Coordinator{
		cfg:    cfg,
		m:      newMetricsSet(cfg.Registry, len(cfg.Shards)),
		stopCh: make(chan struct{}),
	}
	for i, a := range cfg.Shards {
		c.shards = append(c.shards, &shardConn{index: i, addr: a})
	}
	c.pollAll()
	c.pollWG.Add(1)
	go c.pollLoop()
	return c, nil
}

// Close stops the poll loop and drops all shard connections.
func (c *Coordinator) Close() {
	c.closed.Do(func() {
		close(c.stopCh)
		c.pollWG.Wait()
		for _, sc := range c.shards {
			sc.closeConn()
		}
	})
}

// ShardCount returns the configured number of shards.
func (c *Coordinator) ShardCount() int { return len(c.shards) }

// Vertices returns the shared vertex-ID space.
func (c *Coordinator) Vertices() int32 { return c.cfg.Vertices }

// wireTimeout converts a context deadline into the per-exchange wire
// timeout forwarded to shards.
func wireTimeout(ctx context.Context) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		if d := time.Until(dl); d > 0 {
			return d
		}
		return time.Millisecond
	}
	return 0
}

// fanOut runs fn once per shard concurrently — the last shard on the
// calling goroutine, which would otherwise only wait — and returns the
// first error in shard order, tagged with the shard index. This is the BSP
// barrier: it returns only when every shard has answered (or failed). The
// barrier and the error slots are pooled, so a fan-out costs one small
// allocation per extra goroutine.
func (c *Coordinator) fanOut(fn func(sc *shardConn) error) error {
	n := len(c.shards)
	if n == 0 {
		return nil
	}
	f := fanPool.Get()
	f.errs = slices.Grow(f.errs[:0], n)[:n]
	f.wg.Add(n - 1)
	for i, sc := range c.shards[:n-1] {
		go f.run(i, sc, fn)
	}
	f.errs[n-1] = fn(c.shards[n-1])
	f.wg.Wait()
	var err error
	for i, e := range f.errs {
		if e != nil {
			if e != errSkew {
				c.m.shardErrors(i).Inc()
			}
			err = fmt.Errorf("shard %d: %w", i, e)
			break
		}
	}
	clear(f.errs)
	fanPool.Put(f)
	return err
}

// fan is one fan-out's barrier and per-shard error slots.
type fan struct {
	wg   sync.WaitGroup
	errs []error
}

var fanPool = scratch.NewPool(func() *fan { return new(fan) })

// run is fan-out member i.
func (f *fan) run(i int, sc *shardConn, fn func(sc *shardConn) error) {
	defer f.wg.Done()
	f.errs[i] = fn(sc)
}

// versions fetches the current version vector via a meta round — the cheap
// probe that decides whether a kernel cache is still valid.
func (c *Coordinator) versions(ctx context.Context) (versionVec, error) {
	vec := make(versionVec, len(c.shards))
	to := wireTimeout(ctx)
	err := c.fanOut(func(sc *shardConn) error {
		m, err := c.meta(sc, to)
		if err != nil {
			return err
		}
		vec[sc.index] = m.Version
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vec, nil
}

// Ingest routes edits along the partition — each edit goes to the owner of
// its source AND (when different) the owner of its destination, so every
// shard keeps the full adjacency of its owned vertices — and reassembles
// the shards' contiguous-accepted-prefix answers into one global prefix:
// the accepted count is the longest prefix of updates that EVERY routed
// shard admitted, so a 429 retry-from-prefix loop written against a single
// graphd works unchanged against the cluster. Returns the merged result,
// the HTTP status to surface (202, 429, or 503), and the hard error
// if a shard was unreachable. The edits are in range: the front end checks
// them (wire.CheckEdits) before they get here.
func (c *Coordinator) Ingest(edits []wire.IngestEdit, timeout time.Duration) (*wire.IngestResult, int, error) {
	shards := len(c.shards)
	perShard := make([][]wire.IngestEdit, shards)
	perShardIdx := make([][]int, shards) // global index of each routed edit
	for i, e := range edits {
		o1 := Owner(e.Src, shards)
		perShard[o1] = append(perShard[o1], e)
		perShardIdx[o1] = append(perShardIdx[o1], i)
		if o2 := Owner(e.Dst, shards); o2 != o1 {
			perShard[o2] = append(perShard[o2], e)
			perShardIdx[o2] = append(perShardIdx[o2], i)
		}
	}

	type shardOutcome struct {
		res  *wire.IngestResult
		err  error
		hard bool
	}
	outcomes := make([]shardOutcome, shards)
	var wg sync.WaitGroup
	for i := range c.shards {
		if len(perShard[i]) == 0 {
			continue
		}
		c.m.ingestRouted(i, len(perShard[i]))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := c.shards[i]
			err := sc.call(func(cl *wire.Client) error {
				res, err := cl.Ingest(perShard[i], timeout)
				outcomes[i].res = res
				return err
			})
			if err != nil {
				var we *wire.Error
				if errors.As(err, &we) && we.Code == http.StatusTooManyRequests {
					// Partial accept: res carries the shard's prefix.
					return
				}
				outcomes[i].err = err
				outcomes[i].hard = true
			}
		}(i)
	}
	wg.Wait()

	// Global accepted prefix = min over shards of the first globally-indexed
	// edit the shard did not admit. A shard that failed outright admits
	// nothing, so its first routed edit bounds the prefix.
	accepted := len(edits)
	depth := 0
	var hardErr error
	for i := range c.shards {
		if len(perShard[i]) == 0 {
			continue
		}
		o := outcomes[i]
		if o.hard {
			c.m.shardErrors(i).Inc()
			if hardErr == nil {
				hardErr = fmt.Errorf("shard %d: %w", i, o.err)
			}
			if first := perShardIdx[i][0]; first < accepted {
				accepted = first
			}
			continue
		}
		if o.res.Depth > depth {
			depth = o.res.Depth
		}
		if o.res.Accepted < len(perShard[i]) {
			if first := perShardIdx[i][o.res.Accepted]; first < accepted {
				accepted = first
			}
		}
	}

	res := &wire.IngestResult{Accepted: accepted, Rejected: len(edits) - accepted, Depth: depth}
	c.m.ingestAccepted.Add(int64(accepted))
	c.m.ingestRejected.Add(int64(res.Rejected))
	switch {
	case hardErr != nil:
		return res, http.StatusServiceUnavailable, hardErr
	case res.Rejected > 0:
		return res, http.StatusTooManyRequests, nil
	default:
		return res, http.StatusAccepted, nil
	}
}
