package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/incr"
	"repro/internal/kernels"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/wire/snapfmt"
)

// Config sizes one graphd instance. The zero value is not runnable; use
// DefaultConfig as the base and override.
type Config struct {
	// Vertices fixes the vertex-ID space [0, Vertices). Updates referencing
	// IDs outside it are rejected with 400.
	Vertices int32
	// Directed selects the stored graph's directedness.
	Directed bool

	// ShardIndex and ShardCount place this server in a hash-partitioned
	// cluster (graphd -shard-index/-shard-count): the server owns the
	// vertices cluster.Owner assigns to ShardIndex and answers the wire
	// shard-exchange ops (shard.meta, shard.degrees, shard.wcc,
	// shard.prstep, shard.adj) from that owned set. ShardCount <= 1 is the
	// standalone default — the server owns every vertex and the shard ops
	// degenerate to whole-graph answers. The coordinator rejects a shard
	// whose ShardCount/Vertices/Directed disagree with its own config.
	ShardIndex int
	ShardCount int

	// SnapshotPath is where the graph is persisted (tmp+rename). Empty
	// disables persistence and recovery.
	SnapshotPath string
	// SnapshotEvery is the periodic persistence interval; <= 0 persists
	// only on shutdown.
	SnapshotEvery time.Duration

	// QueueCap bounds the ingest queue in updates; a full queue is the
	// backpressure signal (429).
	QueueCap int
	// BatchSize is the most updates applied to the graph per batch.
	BatchSize int
	// FlushEvery bounds how long an update may sit in a partial batch
	// before it is applied (ingest→query freshness under trickle load).
	FlushEvery time.Duration

	// MaxInflight is the admission budget: concurrent queries actually
	// executing. <= 0 resolves to par.DefaultWorkers(), tying query
	// concurrency to the scheduler's worker pool.
	MaxInflight int
	// DefaultTimeout applies when a query carries no ?timeout=.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-supplied ?timeout=.
	MaxTimeout time.Duration

	// Incremental enables edit-batch-driven incremental maintenance: CSR
	// snapshots are patched from the previous version instead of rebuilt,
	// and the per-version WCC/PageRank/degree caches advance their state
	// over the applied batch window instead of recomputing from scratch.
	// Results are equivalent (held by the internal/incr differential
	// oracle); requests served from advanced state are tagged
	// cache=incremental in stage spans. Off by default: the recompute path
	// stays byte-identical to previous releases.
	Incremental bool
	// MaxPendingEdits bounds the incremental delta log in retained edits;
	// when eviction outruns a consumer it falls back to one full recompute
	// and re-anchors. <= 0 uses the default (262144).
	MaxPendingEdits int

	// Registry receives the server_* metric families and request spans;
	// nil uses telemetry.Default().
	Registry *telemetry.Registry

	// SlowQueryThreshold enables the slow-query log: requests whose wall
	// time meets or exceeds it are retained in a bounded ring
	// (/debug/slowqueries) with their stage breakdown and span tree, and
	// appended to SlowQueryOut when set. <= 0 disables capture.
	SlowQueryThreshold time.Duration
	// SlowQueryOut, when non-nil, receives one JSON line per slow query.
	SlowQueryOut io.Writer
	// SlowQueryRing bounds the in-memory slow-query ring (default 128).
	SlowQueryRing int

	// SLOObjectives enables the SLO engine (internal/slo): declarative
	// per-endpoint latency/availability targets evaluated from windowed
	// telemetry deltas, served at /debug/slo and feeding /readyz. Empty
	// disables the engine entirely (the evaluator is nil; zero overhead).
	SLOObjectives []slo.Objective
	// SLOFastWindow/SLOSlowWindow/SLOPeriod shape the burn-rate windows
	// (defaults 1m / 10m / 10s; see slo.Config).
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	SLOPeriod     time.Duration
	// SLOWarnBurn/SLOBreachBurn are the state-machine thresholds
	// (defaults 1 / 4; see slo.Config).
	SLOWarnBurn   float64
	SLOBreachBurn float64

	// ProfileTriggers enables trigger-driven profiling (internal/prof): a
	// profile bundle is captured when an SLO objective enters breaching or a
	// slow query fires. Off by default — the profiler is nil and every hook
	// on the request path is an allocation-free no-op.
	ProfileTriggers bool
	// ProfileDir, when set, additionally writes each bundle to disk.
	ProfileDir string
	// ProfileRing bounds the in-memory bundle ring (default 8).
	ProfileRing int
	// ProfileMinInterval rate-limits captures (default 30s).
	ProfileMinInterval time.Duration
	// ProfileCPUDuration is the CPU profile sampling length (default 2s).
	ProfileCPUDuration time.Duration

	// ReadyQueueFraction fails the /readyz ingest-queue check when queue
	// depth reaches this fraction of QueueCap (default 0.9).
	ReadyQueueFraction float64
	// ReadyMaxHeapBytes fails the /readyz heap check when live heap
	// occupancy exceeds it; 0 disables the check.
	ReadyMaxHeapBytes uint64
	// ReadySnapshotMaxAge fails the /readyz snapshot-age check when the last
	// persisted snapshot is older; <= 0 defaults to 3×SnapshotEvery. Only
	// evaluated when persistence is enabled.
	ReadySnapshotMaxAge time.Duration

	// applyGate, when non-nil, is received from before every batch
	// application. Tests use it to stall the ingest loop and deterministically
	// fill the queue; close it to release the loop for good.
	applyGate chan struct{}
	// queryDelay, when > 0, stalls every admitted query for the duration
	// (deadline-aware). Tests use it as an artificially slow workload to
	// drive the SLO engine into breach.
	queryDelay time.Duration
}

// DefaultConfig returns production-shaped defaults for a scale-16 graph.
func DefaultConfig() Config {
	return Config{
		Vertices:       1 << 16,
		Directed:       false,
		SnapshotEvery:  30 * time.Second,
		QueueCap:       1 << 16,
		BatchSize:      1024,
		FlushEvery:     25 * time.Millisecond,
		MaxInflight:    0,
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     30 * time.Second,
	}
}

// snapState is one immutable CSR view of the graph at a version.
type snapState struct {
	g       *graph.Graph
	version int64
	built   time.Time
}

// ccState caches WCC labels plus component sizes for one version.
type ccState struct {
	version int64
	cc      *kernels.CCResult
	sizes   []int64
}

// prState caches the PageRank vector for one version.
type prState struct {
	version int64
	rank    []float64
	iters   int
}

// Server owns the persistent graph and its serving machinery. Create with
// New, mount Handler on an HTTP listener, and stop with Shutdown.
type Server struct {
	cfg  Config
	reg  *telemetry.Registry
	m    *metricsSet
	slow *slowLog

	// slo and prof are nil unless configured; both are nil-safe, so their
	// hooks stay unconditionally in place on the request path.
	slo  *slo.Evaluator
	prof *prof.Profiler

	// activeTraces refcounts the trace IDs of in-flight traced requests so a
	// profile capture can be stamped with the requests it overlapped.
	// Maintained only when the profiler is enabled.
	activeMu     sync.Mutex
	activeTraces map[telemetry.TraceID]int

	// lastPersist is the unix-nano instant of the last successful Persist
	// (0 before the first) — the /readyz snapshot-age anchor.
	lastPersist atomic.Int64

	// gmu serializes access to dyn: the ingest loop takes the write lock
	// per batch; snapshot rebuilds and persistence take the read lock.
	gmu sync.RWMutex
	dyn *dyngraph.DynGraph

	version atomic.Int64 // bumped once per applied batch
	applied atomic.Int64 // updates applied since start (freshness probe)

	snapMu sync.Mutex // serializes CSR rebuilds (rebuild work is done once)
	snap   atomic.Pointer[snapState]

	ccMu sync.Mutex
	cc   atomic.Pointer[ccState]
	prMu sync.Mutex
	pr   atomic.Pointer[prState]
	tkMu sync.Mutex
	tk   atomic.Pointer[tkState]

	// Incremental maintenance (Config.Incremental): the delta log feeds the
	// per-kernel states, each guarded by its cache's mutex above (incrCC by
	// ccMu, incrPR by prMu, incrDeg by tkMu). States start nil and are
	// seeded by the first full compute — also correct after crash recovery,
	// where the graph is non-empty at version 0.
	deltas  *deltaLog
	incrCC  *incr.WCCState
	incrPR  *incr.PRState
	incrDeg *incr.DegreeState

	queue chan dyngraph.Edit
	admit chan struct{}

	// ownedCount is the size of this server's owned vertex set under the
	// cluster hash partition (Config.ShardIndex/ShardCount); equals
	// Vertices when standalone. Computed once at startup.
	ownedCount int64

	started   time.Time
	draining  atomic.Bool
	stopOnce  sync.Once
	stopCh    chan struct{} // closed to begin drain
	ingestEnd chan struct{} // closed when the ingest loop has drained and exited
	persistWG sync.WaitGroup
	recovered bool

	// wireMu guards wireConns, the open wire-protocol sessions. Shutdown
	// closes them (unblocking their frame reads) and nils the map so late
	// accepts are refused.
	wireMu    sync.Mutex
	wireConns map[net.Conn]struct{}
}

// New builds a server, recovering the graph from Config.SnapshotPath when
// the file exists, and starts the ingest loop and periodic persister.
func New(cfg Config) (*Server, error) {
	if cfg.Vertices <= 0 {
		return nil, fmt.Errorf("server: Vertices must be > 0, got %d", cfg.Vertices)
	}
	if cfg.QueueCap <= 0 {
		return nil, fmt.Errorf("server: QueueCap must be > 0, got %d", cfg.QueueCap)
	}
	if cfg.ShardCount > 1 {
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount {
			return nil, fmt.Errorf("server: ShardIndex %d out of range [0, %d)", cfg.ShardIndex, cfg.ShardCount)
		}
	} else if cfg.ShardIndex != 0 {
		return nil, fmt.Errorf("server: ShardIndex %d requires ShardCount > 1", cfg.ShardIndex)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1024
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 25 * time.Millisecond
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Second
	}
	if cfg.MaxTimeout < cfg.DefaultTimeout {
		cfg.MaxTimeout = cfg.DefaultTimeout
	}
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = par.DefaultWorkers()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}

	s := &Server{
		cfg:       cfg,
		reg:       reg,
		m:         newMetricsSet(reg),
		slow:      newSlowLog(cfg.SlowQueryThreshold, cfg.SlowQueryRing, cfg.SlowQueryOut, reg),
		queue:     make(chan dyngraph.Edit, cfg.QueueCap),
		admit:     make(chan struct{}, inflight),
		started:   time.Now(),
		stopCh:    make(chan struct{}),
		ingestEnd: make(chan struct{}),
		wireConns: make(map[net.Conn]struct{}),
	}
	s.ownedCount = cluster.OwnedCount(cfg.Vertices, cfg.ShardIndex, cfg.ShardCount)

	if cfg.SnapshotPath != "" {
		sweepStaleSnapshotTmp(cfg.SnapshotPath)
		if err := s.recover(cfg.SnapshotPath); err != nil {
			return nil, err
		}
	}
	if s.dyn == nil {
		s.dyn = dyngraph.New(cfg.Vertices, cfg.Directed)
	}
	if cfg.Incremental {
		s.deltas = newDeltaLog(cfg.MaxPendingEdits, s.m.pendingDeltas)
	}

	if cfg.ProfileTriggers {
		s.prof = prof.New(prof.Config{
			Registry:    reg,
			Dir:         cfg.ProfileDir,
			Ring:        cfg.ProfileRing,
			MinInterval: cfg.ProfileMinInterval,
			CPUDuration: cfg.ProfileCPUDuration,
		})
		s.activeTraces = make(map[telemetry.TraceID]int)
	}
	if len(cfg.SLOObjectives) > 0 {
		ev, err := slo.New(slo.Config{
			Registry:     reg,
			Objectives:   cfg.SLOObjectives,
			FastWindow:   cfg.SLOFastWindow,
			SlowWindow:   cfg.SLOSlowWindow,
			Period:       cfg.SLOPeriod,
			WarnBurn:     cfg.SLOWarnBurn,
			BreachBurn:   cfg.SLOBreachBurn,
			OnTransition: s.onSLOTransition,
		})
		if err != nil {
			return nil, err
		}
		s.slo = ev
		go ev.Run(s.stopCh)
	}

	go s.ingestLoop()
	if cfg.SnapshotPath != "" && cfg.SnapshotEvery > 0 {
		s.persistWG.Add(1)
		go s.persistLoop()
	}
	return s, nil
}

// recover loads the snapshot at path, dispatching on format: the flat CSR
// format (internal/wire/snapfmt, sniffed by magic) is the fast path — the
// arrays are read straight into a served snapshot (pre-seeded at version 0,
// so the first query pays no rebuild) and the dynamic graph is bulk-built
// from them in O(arcs); anything else goes through the legacy
// dyngraph.Load reader. A flat file that fails its CRC or validation is
// quarantined (renamed to path+".corrupt") and the server starts empty —
// losing a snapshot must not keep the daemon down. A snapshot whose shape
// contradicts the config is a hard error either way: that is an operator
// mistake, not corruption.
func (s *Server) recover(path string) error {
	flat, err := snapfmt.SniffFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("server: open snapshot: %w", err)
	}
	if !flat {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("server: open snapshot: %w", err)
		}
		g, lerr := dyngraph.Load(f)
		f.Close()
		if lerr != nil {
			return fmt.Errorf("server: recover %s: %w", path, lerr)
		}
		if g.NumVertices() != s.cfg.Vertices || g.Directed() != s.cfg.Directed {
			return fmt.Errorf("server: snapshot %s is %d vertices directed=%v, config wants %d/%v",
				path, g.NumVertices(), g.Directed(), s.cfg.Vertices, s.cfg.Directed)
		}
		s.dyn = g
		s.recovered = true
		return nil
	}
	g, rerr := snapfmt.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, snapfmt.ErrCorrupt) {
			quarantine := path + ".corrupt"
			if err := os.Rename(path, quarantine); err != nil {
				return fmt.Errorf("server: quarantine corrupt snapshot: %w", err)
			}
			fmt.Fprintf(os.Stderr, "server: snapshot %s is corrupt (%v); quarantined to %s, starting empty\n",
				path, rerr, quarantine)
			return nil
		}
		return fmt.Errorf("server: recover %s: %w", path, rerr)
	}
	if g.NumVertices() != s.cfg.Vertices || g.Directed() != s.cfg.Directed {
		return fmt.Errorf("server: snapshot %s is %d vertices directed=%v, config wants %d/%v",
			path, g.NumVertices(), g.Directed(), s.cfg.Vertices, s.cfg.Directed)
	}
	s.dyn = dyngraph.FromCSRGraph(g)
	s.snap.Store(&snapState{g: g, version: 0, built: time.Now()})
	s.recovered = true
	return nil
}

// sweepStaleSnapshotTmp removes temp files a crash mid-Persist left next to
// the snapshot (path+".tmp.<pid>") — harmless individually, unbounded junk
// across enough crashes.
func sweepStaleSnapshotTmp(path string) {
	matches, _ := filepath.Glob(path + ".tmp.*")
	for _, m := range matches {
		_ = os.Remove(m)
	}
}

// Recovered reports whether New loaded an existing snapshot.
func (s *Server) Recovered() bool { return s.recovered }

// Version returns the current graph version (one tick per applied batch).
func (s *Server) Version() int64 { return s.version.Load() }

// Applied returns the number of updates applied since start.
func (s *Server) Applied() int64 { return s.applied.Load() }

// snapshot returns an immutable CSR view no older than the last applied
// batch. Rebuilds are serialized and done at most once per version; while
// the read lock is held no batch can apply, so the version recorded with
// the snapshot is exact.
func (s *Server) snapshot() *graph.Graph {
	return s.snapshotState().g
}

// snapshotState is the snapshot core. In incremental mode a stale snapshot
// is patched from the previous one when the delta log still covers the
// window — only touched adjacency rows are rebuilt; the rest stay where the
// previous version keeps them in the shared arc arena, or are bulk-copied
// when the arena is full and a fresh one starts
// (server_snapshot_patches_total); otherwise (and always in recompute mode)
// dyngraph.Snapshot re-emits every row: one walk of the block chains and a
// per-row sort, no global edge sort (server_snapshot_rebuilds_total).
func (s *Server) snapshotState() *snapState {
	if st := s.snap.Load(); st != nil && st.version == s.version.Load() {
		s.m.snapAge.Set(time.Since(st.built).Seconds())
		return st
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if st := s.snap.Load(); st != nil && st.version == s.version.Load() {
		s.m.snapAge.Set(time.Since(st.built).Seconds())
		return st
	}
	prev := s.snap.Load()
	s.gmu.RLock()
	v := s.version.Load()
	var g *graph.Graph
	patched := false
	if prev != nil && s.deltas != nil {
		if batches, ok := s.deltas.take(prev.version, v); ok {
			g = s.dyn.SnapshotDelta(prev.g, incr.TouchedVertices(batches, s.cfg.Vertices))
			patched = true
		}
	}
	if g == nil {
		g = s.dyn.Snapshot()
	}
	s.gmu.RUnlock()
	st := &snapState{g: g, version: v, built: time.Now()}
	s.snap.Store(st)
	if patched {
		s.m.snapPatches.Inc()
	} else {
		s.m.rebuilds.Inc()
	}
	s.m.snapAge.Set(0)
	return st
}

// snapshotFor is snapshot with any CSR rebuild attributed to the request's
// "snapshot" lifecycle stage; the common cached path records no stage.
func (s *Server) snapshotFor(ctx context.Context) *graph.Graph {
	g, _ := s.snapshotVersionedFor(ctx)
	return g
}

// snapshotVersionedFor returns the served snapshot together with the exact
// version it was built at, so kernel caches key on a (graph, version) pair
// that cannot skew when a batch applies between reading the version counter
// and materializing the view.
func (s *Server) snapshotVersionedFor(ctx context.Context) (*graph.Graph, int64) {
	if st := s.snap.Load(); st != nil && st.version == s.version.Load() {
		s.m.snapAge.Set(time.Since(st.built).Seconds())
		return st.g, st.version
	}
	end := traceFrom(ctx).stage("snapshot")
	st := s.snapshotState()
	end()
	return st.g, st.version
}

// components returns the per-version cached WCC result (labels + component
// sizes), computing it under ctx on a miss.
func (s *Server) components(ctx context.Context, g *graph.Graph, version int64) (*ccState, error) {
	if st := s.cc.Load(); st != nil && st.version == version {
		s.cacheHit(ctx, "wcc")
		return st, nil
	}
	s.ccMu.Lock()
	defer s.ccMu.Unlock()
	if st := s.cc.Load(); st != nil && st.version == version {
		s.cacheHit(ctx, "wcc")
		return st, nil
	}
	if s.cfg.Incremental && s.incrCC != nil {
		if batches, ok := s.deltas.take(s.incrCC.Version(), version); ok {
			ctx2, end := traceFrom(ctx).stageCtx(ctx, "kernel",
				telemetry.L("kernel", "wcc"), telemetry.L("cache", "incremental"))
			cc, err := s.incrCC.Advance(ctx2, g, version, batches)
			end()
			if err != nil {
				return nil, err
			}
			s.m.ccAdvances.Inc()
			st := &ccState{version: version, cc: cc, sizes: componentSizes(cc, g)}
			s.cc.Store(st)
			return st, nil
		}
		s.m.ccFallbacks.Inc()
	}
	s.m.ccRebuilds.Inc()
	ctx, end := traceFrom(ctx).stageCtx(ctx, "kernel",
		telemetry.L("kernel", "wcc"), telemetry.L("cache", "miss"))
	cc, err := kernels.WCCCtx(ctx, g)
	if err != nil {
		end()
		return nil, err
	}
	sizes := componentSizes(cc, g)
	end()
	if s.cfg.Incremental {
		s.incrCC = incr.SeedWCC(cc, version)
	}
	st := &ccState{version: version, cc: cc, sizes: sizes}
	s.cc.Store(st)
	return st, nil
}

// componentSizes tallies members per canonical label.
func componentSizes(cc *kernels.CCResult, g *graph.Graph) []int64 {
	sizes := make([]int64, g.NumVertices())
	for _, l := range cc.Label {
		sizes[l]++
	}
	return sizes
}

// cacheHit publishes one per-version cache hit: the counter plus a root-span
// attribute so traces show the request skipped the kernel.
func (s *Server) cacheHit(ctx context.Context, kernel string) {
	s.reg.Counter("server_cache_hit_total", telemetry.L("kernel", kernel)).Inc()
	if rt := traceFrom(ctx); rt != nil {
		rt.root.SetAttr("cache", "hit")
	}
}

// pagerank returns the per-version cached PageRank vector, computing it
// under ctx on a miss.
func (s *Server) pagerank(ctx context.Context, g *graph.Graph, version int64) (*prState, error) {
	if st := s.pr.Load(); st != nil && st.version == version {
		s.cacheHit(ctx, "pagerank")
		return st, nil
	}
	s.prMu.Lock()
	defer s.prMu.Unlock()
	if st := s.pr.Load(); st != nil && st.version == version {
		s.cacheHit(ctx, "pagerank")
		return st, nil
	}
	if s.cfg.Incremental && s.incrPR != nil {
		if batches, ok := s.deltas.take(s.incrPR.Version(), version); ok {
			ctx2, end := traceFrom(ctx).stageCtx(ctx, "kernel",
				telemetry.L("kernel", "pagerank"), telemetry.L("cache", "incremental"))
			rank, iters, err := s.incrPR.Advance(ctx2, g, version, batches)
			end()
			if err != nil {
				return nil, err
			}
			s.m.prAdvances.Inc()
			st := &prState{version: version, rank: rank, iters: iters}
			s.pr.Store(st)
			return st, nil
		}
		s.m.prFallbacks.Inc()
	}
	s.m.prRebuilds.Inc()
	ctx, end := traceFrom(ctx).stageCtx(ctx, "kernel",
		telemetry.L("kernel", "pagerank"), telemetry.L("cache", "miss"))
	rank, iters, err := kernels.PageRankCtx(ctx, g, kernels.DefaultPageRankOptions())
	end()
	if err != nil {
		return nil, err
	}
	if s.cfg.Incremental {
		s.incrPR = incr.SeedPR(rank, g, kernels.DefaultPageRankOptions(), version)
	}
	st := &prState{version: version, rank: rank, iters: iters}
	s.pr.Store(st)
	return st, nil
}

// Persist writes the graph to Config.SnapshotPath via a temp file and
// atomic rename, so a crash mid-write never leaves a torn snapshot. No-op
// when persistence is disabled.
//
// The file is the flat CSR format (internal/wire/snapfmt): the served
// snapshot's arrays written raw, so recovery is O(read) instead of
// O(parse). What is persisted is therefore the built CSR view — the same
// graph every query answers from (self-loops, which the snapshot builder
// drops, are not persisted). snapshotState brings the snapshot to the
// current version first, taking the graph read lock only if a
// rebuild/patch is actually needed.
func (s *Server) Persist() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	start := time.Now()
	st := s.snapshotState()
	tmp := s.cfg.SnapshotPath + ".tmp." + strconv.Itoa(os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: persist: %w", err)
	}
	err = snapfmt.Write(f, st.g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: persist: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.SnapshotPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: persist: %w", err)
	}
	s.m.persists.Inc()
	s.m.persistSec.ObserveDuration(time.Since(start))
	s.lastPersist.Store(time.Now().UnixNano())
	return nil
}

// onSLOTransition is the evaluator's transition hook: an objective
// entering breaching triggers a profile capture stamped with the traces
// in flight at that instant — evidence from inside the incident.
func (s *Server) onSLOTransition(tr slo.Transition) {
	if tr.To == slo.StateBreaching {
		s.prof.Trigger("slo:"+tr.Objective.Endpoint, s.activeTraceIDs())
	}
}

// trackTrace registers an in-flight traced request for profile stamping.
// Only called when the profiler is enabled.
func (s *Server) trackTrace(id telemetry.TraceID) {
	s.activeMu.Lock()
	s.activeTraces[id]++
	s.activeMu.Unlock()
}

// untrackTrace drops one reference to an in-flight trace.
func (s *Server) untrackTrace(id telemetry.TraceID) {
	s.activeMu.Lock()
	if s.activeTraces[id]--; s.activeTraces[id] <= 0 {
		delete(s.activeTraces, id)
	}
	s.activeMu.Unlock()
}

// activeTraceIDs snapshots the trace IDs of requests in flight right now.
func (s *Server) activeTraceIDs() []telemetry.TraceID {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	out := make([]telemetry.TraceID, 0, len(s.activeTraces))
	for id := range s.activeTraces {
		out = append(out, id)
	}
	return out
}

// SLOStatus returns the SLO engine's current evaluation (disabled status
// when no objectives are configured).
func (s *Server) SLOStatus() slo.Status { return s.slo.Status() }

// ProfileBundles returns the retained trigger-captured profile bundles,
// oldest first (nil when profiling is disabled).
func (s *Server) ProfileBundles() []prof.BundleMeta { return s.prof.Bundles() }

// persistLoop writes periodic snapshots until shutdown (the final snapshot
// is Shutdown's, after the drain).
func (s *Server) persistLoop() {
	defer s.persistWG.Done()
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = s.Persist() // periodic failure is retried next tick; shutdown's persist reports
		case <-s.stopCh:
			return
		}
	}
}

// Shutdown drains and stops the server: new ingest is refused (503), the
// queued updates are applied, the periodic persister stops, and a final
// snapshot is written. Safe to call more than once; ctx bounds the drain
// wait. The HTTP listener itself is the caller's to close (http.Server
// Shutdown order: listener first, then this).
func (s *Server) Shutdown(ctx context.Context) error {
	start := time.Now()
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.closeWireConns()
	select {
	case <-s.ingestEnd:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
	s.persistWG.Wait()
	err := s.Persist()
	s.m.drainSec.Set(time.Since(start).Seconds())
	return err
}

// Stats is the /stats payload.
type Stats struct {
	Vertices        int32   `json:"vertices"`
	Edges           int64   `json:"edges"`
	Arcs            int64   `json:"arcs"`
	Directed        bool    `json:"directed"`
	Version         int64   `json:"version"`
	Applied         int64   `json:"applied"`
	QueueDepth      int     `json:"queue_depth"`
	QueueCap        int     `json:"queue_cap"`
	SnapshotVersion int64   `json:"snapshot_version"`
	Recovered       bool    `json:"recovered"`
	Draining        bool    `json:"draining"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	// Incremental reports whether edit-batch-driven incremental maintenance
	// is enabled (Config.Incremental / graphd -incremental).
	Incremental bool `json:"incremental"`
	// PendingDeltaBatches is the number of applied batches retained in the
	// delta log for incremental consumers (0 in recompute mode).
	PendingDeltaBatches int `json:"pending_delta_batches"`
	// PendingDeltaEdits is the total edits across the retained batches.
	PendingDeltaEdits int `json:"pending_delta_edits"`
	// ShardIndex/ShardCount report the server's position in a hash-
	// partitioned cluster (0/1 when standalone).
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
	// OwnedVertices is the size of the owned vertex set under the cluster
	// partition (= Vertices when standalone). Uneven values across shards
	// indicate partition skew.
	OwnedVertices int64 `json:"owned_vertices"`
}

// StatsNow assembles the current serving stats.
func (s *Server) StatsNow() Stats {
	s.gmu.RLock()
	edges := s.dyn.NumEdges()
	arcs := s.dyn.NumArcs()
	s.gmu.RUnlock()
	var sv int64 = -1
	if st := s.snap.Load(); st != nil {
		sv = st.version
	}
	pendingBatches, pendingEdits := s.deltas.stats()
	return Stats{
		Vertices:            s.cfg.Vertices,
		Edges:               edges,
		Arcs:                arcs,
		Directed:            s.cfg.Directed,
		Version:             s.version.Load(),
		Applied:             s.applied.Load(),
		QueueDepth:          len(s.queue),
		QueueCap:            s.cfg.QueueCap,
		SnapshotVersion:     sv,
		Recovered:           s.recovered,
		Draining:            s.draining.Load(),
		UptimeSeconds:       time.Since(s.started).Seconds(),
		Incremental:         s.cfg.Incremental,
		PendingDeltaBatches: pendingBatches,
		PendingDeltaEdits:   pendingEdits,
		ShardIndex:          s.cfg.ShardIndex,
		ShardCount:          s.shardCount(),
		OwnedVertices:       s.ownedCount,
	}
}
