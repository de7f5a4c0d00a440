package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/prof"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/wire"
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
	// FlushEvery bounds how long an update may sit in a partial batch
	// before it is applied (ingest→query freshness under trickle load).
	FlushEvery time.Duration

	// MaxPendingEdits bounds the window, the edits no published bundle
	// reflects yet. The writer patches each published snapshot from the
	// previous version and advances the WCC/PageRank/degree state over the
	// window; an unread stretch past the bound drops the window, and the
	// catch-up build recomputes in full and re-anchors. <= 0 uses the
	// default (262144).
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

	// SLOObjectives enables the SLO engine (internal/slo): declarative
	// per-endpoint latency/availability targets evaluated from windowed
	// telemetry deltas, served at /debug/slo and feeding /readyz. Empty
	// disables the engine entirely (the evaluator is nil; zero overhead).
	// Each objective's endpoint must be an op label the server records in
	// server_query_seconds; New rejects any other.
	SLOObjectives []slo.Objective

	// ProfileTriggers enables trigger-driven profiling (internal/prof): a
	// profile bundle is captured when an SLO objective enters breaching or a
	// slow query fires. Off by default — the profiler is nil and every hook
	// on the request path is an allocation-free no-op.
	ProfileTriggers bool
	// ProfileDir, when set, additionally writes each bundle to disk.
	ProfileDir string

	// ReadyMaxHeapBytes fails the /readyz heap check when live heap
	// occupancy exceeds it; 0 disables the check.
	ReadyMaxHeapBytes uint64

	// applyGate, when non-nil, is received from before every batch
	// application. Tests use it to stall the ingest loop and deterministically
	// fill the queue; close it to release the loop for good.
	applyGate chan struct{}
	// queryDelay, when > 0, stalls every admitted query for the duration
	// (deadline-aware). Tests use it as an artificially slow workload to
	// drive the SLO engine into breach.
	queryDelay time.Duration
	// batchSize, when > 0, replaces batchCap as the most updates applied
	// per batch. Tests use small batches to place batch boundaries.
	batchSize int
	// sloFast, sloSlow and sloPeriod, when > 0, replace the SLO engine's
	// windows (slo.Config's defaults), and profMinInterval and profCPU the
	// profiler's timing (prof.Config's), so drills finish in seconds.
	sloFast, sloSlow, sloPeriod time.Duration
	profMinInterval, profCPU    time.Duration
}

// batchCap is the most updates the writer applies to the graph per batch.
const batchCap = 1024

// DefaultConfig returns production-shaped defaults for a scale-16 graph.
func DefaultConfig() Config {
	return Config{
		Vertices:      1 << 16,
		Directed:      false,
		SnapshotEvery: 30 * time.Second,
		QueueCap:      1 << 16,
		FlushEvery:    25 * time.Millisecond,
	}
}

// Server owns the persistent graph and its serving machinery. Create with
// New, mount Handler on an HTTP listener, and stop with Shutdown. It serves
// through the front end it embeds, as that front end's backend.
type Server struct {
	frontEnd
	cfg Config
	m   *metricsSet

	// slo, like the front end's prof, is nil unless configured and nil-safe,
	// so its hooks stay unconditionally in place on the request path.
	slo *slo.Evaluator

	// lastPersist is the unix-nano instant of the last successful Persist
	// (0 before the first) — the /readyz snapshot-age anchor.
	lastPersist atomic.Int64

	// dyn and b belong to the ingest goroutine (doc.go); others read dyn
	// only after Shutdown.
	dyn *dyngraph.DynGraph
	b   builder

	// cur is the published bundle; the visible counters follow doc.go.
	cur     atomic.Pointer[bundle]
	version atomic.Int64 // one tick per applied batch
	applied atomic.Int64 // updates applied since start (freshness probe)
	edges   atomic.Int64
	arcs    atomic.Int64
	// The writer's window: batches and edits applied since cur's version.
	pendingBatches, pendingEdits atomic.Int64

	want     [numParts]atomic.Bool           // kernels readers have asked for; sticky
	wake     chan struct{}                   // cap 1: a reader waits for a build
	buildCtx atomic.Pointer[context.Context] // the first waiting reader's stage, for the build's spans

	queue chan dyngraph.Edit
	admit chan struct{}

	// ownedCount is the size of this server's owned vertex set under the
	// cluster hash partition (Config.ShardIndex/ShardCount); equals
	// Vertices when standalone. Computed once at startup.
	ownedCount int64

	started   time.Time
	stopOnce  sync.Once
	stopCh    chan struct{} // closed to begin drain
	ingestEnd chan struct{} // closed when the ingest loop has drained, published and exited
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
	if cfg.batchSize <= 0 {
		cfg.batchSize = batchCap
	}
	if cfg.MaxPendingEdits <= 0 {
		cfg.MaxPendingEdits = 1 << 18
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 25 * time.Millisecond
	}
	for _, o := range cfg.SLOObjectives {
		if eps := servedEndpoints(); !slices.Contains(eps, o.Endpoint) {
			return nil, fmt.Errorf("server: SLO endpoint %q is not served; valid endpoints: %s",
				o.Endpoint, strings.Join(eps, ", "))
		}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}

	s := &Server{
		frontEnd:  frontEnd{vertices: cfg.Vertices, reg: reg, slow: newSlowLog(cfg.SlowQueryThreshold, cfg.SlowQueryOut, reg)},
		cfg:       cfg,
		m:         newMetricsSet(reg),
		queue:     make(chan dyngraph.Edit, cfg.QueueCap),
		admit:     make(chan struct{}, par.DefaultWorkers()),
		started:   time.Now(),
		stopCh:    make(chan struct{}),
		ingestEnd: make(chan struct{}),
		wake:      make(chan struct{}, 1),
		wireConns: make(map[net.Conn]struct{}),
	}
	s.back = s
	s.ownedCount = cluster.OwnedCount(cfg.Vertices, cfg.ShardIndex, cfg.ShardCount)

	var g0 *graph.Graph
	if cfg.SnapshotPath != "" {
		sweepStaleSnapshotTmp(cfg.SnapshotPath)
		var err error
		if g0, err = s.recover(cfg.SnapshotPath); err != nil {
			return nil, err
		}
	}
	if s.dyn == nil {
		s.dyn = dyngraph.New(cfg.Vertices, cfg.Directed)
	}
	if g0 == nil {
		g0 = s.dyn.SnapshotDeltaRecycled(nil, nil, &s.b.graphs)
	}
	s.cur.Store(&bundle{built: time.Now(), next: make(chan struct{}), parts: [numParts]*part{partGraph: {g: g0, users: 1}}})
	s.setVisible()

	if cfg.ProfileTriggers {
		s.prof = prof.New(prof.Config{
			Registry:    reg,
			Dir:         cfg.ProfileDir,
			MinInterval: cfg.profMinInterval,
			CPUDuration: cfg.profCPU,
		})
		s.activeTraces = make(map[telemetry.TraceID]int)
	}
	if len(cfg.SLOObjectives) > 0 {
		ev, err := slo.New(slo.Config{
			Registry:     reg,
			Objectives:   cfg.SLOObjectives,
			FastWindow:   cfg.sloFast,
			SlowWindow:   cfg.sloSlow,
			Period:       cfg.sloPeriod,
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

// servedEndpoints lists the op labels the front end records in
// server_query_seconds, one per wire op: the endpoints an SLO can judge.
func servedEndpoints() []string {
	var eps []string
	for op := 0; op <= 255; op++ {
		if name := wire.OpName(byte(op)); name != "unknown" {
			eps = append(eps, name)
		}
	}
	return eps
}

// recover loads the flat CSR snapshot (internal/wire/snapfmt) at path: the
// arrays are read straight into the first published snapshot (returned, so
// the first query pays no rebuild) and the dynamic graph is bulk-built from
// them in O(arcs). A file without the flat magic is refused: it is not a
// snapshot this program wrote, so it is neither quarantined nor silently
// replaced by an empty graph, and the file is left as it is. A flat file
// that fails its CRC or validation is quarantined (renamed to
// path+".corrupt") and the server starts empty — losing a snapshot must not
// keep the daemon down. A snapshot whose shape contradicts the config is a
// hard error: that is an operator mistake, not corruption.
func (s *Server) recover(path string) (*graph.Graph, error) {
	flat, err := snapfmt.SniffFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("server: open snapshot: %w", err)
	}
	if !flat {
		return nil, fmt.Errorf("server: snapshot %s is not in the flat format", path)
	}
	g, rerr := snapfmt.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, snapfmt.ErrCorrupt) {
			quarantine := path + ".corrupt"
			if err := os.Rename(path, quarantine); err != nil {
				return nil, fmt.Errorf("server: quarantine corrupt snapshot: %w", err)
			}
			fmt.Fprintf(os.Stderr, "server: snapshot %s is corrupt (%v); quarantined to %s, starting empty\n",
				path, rerr, quarantine)
			return nil, nil
		}
		return nil, fmt.Errorf("server: recover %s: %w", path, rerr)
	}
	if g.NumVertices() != s.cfg.Vertices || g.Directed() != s.cfg.Directed {
		return nil, fmt.Errorf("server: snapshot %s is %d vertices directed=%v, config wants %d/%v",
			path, g.NumVertices(), g.Directed(), s.cfg.Vertices, s.cfg.Directed)
	}
	s.dyn = dyngraph.FromCSRGraph(g)
	s.recovered = true
	return g, nil
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

// Version returns the visible graph version (one tick per applied batch;
// see bundle.go for when it moves).
func (s *Server) Version() int64 { return s.version.Load() }

// Applied returns the number of updates applied since start, as far as
// reads are guaranteed to see them.
func (s *Server) Applied() int64 { return s.applied.Load() }

// Persist writes the graph to Config.SnapshotPath via a temp file and
// atomic rename, so a crash mid-write never leaves a torn snapshot. The temp
// file is synced before the rename and the directory after it, so once
// Persist returns the new snapshot survives power loss, and the rename can
// never become durable ahead of the bytes it names. No-op when persistence
// is disabled.
//
// The file is the flat CSR format (internal/wire/snapfmt): the served
// snapshot's arrays written raw, so recovery is O(read) instead of
// O(parse). What is persisted is therefore the built CSR view — the same
// graph every query answers from. Persist pins the published bundle like a
// reader, waiting for the writer's catch-up build when the bundle lags the
// visible version, and releases it after writing.
func (s *Server) Persist() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	start := time.Now()
	st, err := s.acquire(context.Background(), nil, partGraph)
	if err != nil {
		return fmt.Errorf("server: persist: %w", err)
	}
	defer st.unpin()
	if err := writeDurably(s.cfg.SnapshotPath, st.parts[partGraph].g); err != nil {
		return fmt.Errorf("server: persist: %w", err)
	}
	s.m.persists.Inc()
	s.m.persistSec.ObserveDuration(time.Since(start))
	s.lastPersist.Store(time.Now().UnixNano())
	return nil
}

// writeDurably replaces path with g's flat snapshot: write a temp file
// beside it, sync it, rename it over path, sync the directory. The temp file
// is removed on every error.
func writeDurably(path string, g *graph.Graph) (err error) {
	tmp := path + ".tmp." + strconv.Itoa(os.Getpid())
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	err = snapfmt.Write(f, g)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// onSLOTransition is the evaluator's transition hook: an objective
// entering breaching triggers a profile capture stamped with the traces
// in flight at that instant — evidence from inside the incident.
func (s *Server) onSLOTransition(tr slo.Transition) {
	if tr.To == slo.StateBreaching {
		s.prof.Trigger("slo:"+tr.Objective.Endpoint, s.activeTraceIDs())
	}
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
// queued updates are applied and published, the writer (a later read that
// needs a build answers 503) and the periodic persister stop, and a final
// snapshot is written. Safe to call more than once; ctx bounds the wait.
// The HTTP listener itself is the caller's to close (http.Server Shutdown
// order: listener first, then this).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.closeWireConns()
	select {
	case <-s.ingestEnd:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
	s.persistWG.Wait()
	return s.Persist()
}

// Stats is the /stats payload.
type Stats struct {
	Vertices int32 `json:"vertices"`
	Edges    int64 `json:"edges"`
	Arcs     int64 `json:"arcs"`
	Directed bool  `json:"directed"`
	// Version and Applied are visible: a read that starts after they show
	// N sees all N updates (doc.go says when they move).
	Version    int64 `json:"version"`
	Applied    int64 `json:"applied"`
	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	// SnapshotVersion is the published bundle's, below Version while unread.
	SnapshotVersion int64   `json:"snapshot_version"`
	Recovered       bool    `json:"recovered"`
	Draining        bool    `json:"draining"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	// PendingDeltaBatches is the number of batches applied since the
	// published bundle's version: the ones no published bundle reflects.
	PendingDeltaBatches int `json:"pending_delta_batches"`
	// PendingDeltaEdits is the total edits across those batches.
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
	return Stats{
		Vertices:            s.cfg.Vertices,
		Edges:               s.edges.Load(),
		Arcs:                s.arcs.Load(),
		Directed:            s.cfg.Directed,
		Version:             s.version.Load(),
		Applied:             s.applied.Load(),
		QueueDepth:          len(s.queue),
		QueueCap:            s.cfg.QueueCap,
		SnapshotVersion:     s.cur.Load().version,
		Recovered:           s.recovered,
		Draining:            s.draining.Load(),
		UptimeSeconds:       time.Since(s.started).Seconds(),
		PendingDeltaBatches: int(s.pendingBatches.Load()),
		PendingDeltaEdits:   int(s.pendingEdits.Load()),
		ShardIndex:          s.cfg.ShardIndex,
		ShardCount:          s.shardCount(),
		OwnedVertices:       s.ownedCount,
	}
}
