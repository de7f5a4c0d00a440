// Command graphd is the long-running graph query/ingest daemon over the
// paper's Fig. 2 canonical flow: a persistent dynamic graph continuously
// fed by streaming edge/property updates (with in-line dedup, bounded
// queues, and 429 backpressure) while a concurrent HTTP+JSON query API
// serves per-vertex Jaccard, k-hop neighborhoods, top-k degree, component
// lookups, and PageRank scores against fresh immutable snapshots. The
// telemetry endpoints (/metrics, /debug/spans, /debug/pprof) share the
// same listener, as do the health probes (/healthz liveness, /readyz
// readiness), the SLO engine (-slo flags, /debug/slo), and trigger-driven
// profiling (-profile-triggers, /debug/profiles). SIGTERM/SIGINT flip
// /readyz to 503, hold -drain-grace for balancers, then drain the ingest
// queue and write a final snapshot before exit. See docs/OPERATIONS.md
// for the runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := server.DefaultConfig()
	var (
		listen        = flag.String("listen", ":8090", "HTTP address serving the query/ingest API and telemetry")
		listenWire    = flag.String("listen-wire", "", "TCP address serving the binary wire protocol (empty = disabled)")
		shardIndex    = flag.Int("shard-index", 0, "this process's partition index in a graphctl cluster (requires -shard-count)")
		shardCount    = flag.Int("shard-count", 0, "total shards in the cluster (0 or 1 = standalone); shard mode requires -listen-wire")
		vertices      = flag.Int("vertices", int(cfg.Vertices), "vertex-ID space [0,n); ingest outside it is rejected")
		directed      = flag.Bool("directed", cfg.Directed, "store a directed graph")
		snapshot      = flag.String("snapshot", "", "snapshot file for periodic persistence and crash recovery (empty = volatile)")
		snapEvery     = flag.Duration("snapshot-interval", cfg.SnapshotEvery, "periodic snapshot interval (<=0 = only on shutdown)")
		queueCap      = flag.Int("queue", cfg.QueueCap, "ingest queue capacity in updates (full queue = 429 backpressure)")
		batchSize     = flag.Int("batch", cfg.BatchSize, "max updates applied to the graph per batch")
		flushEvery    = flag.Duration("flush-interval", cfg.FlushEvery, "max time an update waits in a partial batch")
		maxInflight   = flag.Int("max-inflight", 0, "concurrent query budget (0 = par worker count)")
		maxPending    = flag.Int("max-pending-edits", 0, "bound on applied edits no published version reflects; an unread stretch past it makes the catch-up build recompute in full (0 = default 262144)")
		defTimeout    = flag.Duration("default-timeout", cfg.DefaultTimeout, "query deadline when the client sends no ?timeout=")
		maxTimeout    = flag.Duration("max-timeout", cfg.MaxTimeout, "upper clamp on client-supplied ?timeout=")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max time to drain the ingest queue on shutdown")
		metricsSample = flag.Duration("runtime-sample", 5*time.Second, "runtime/metrics sampling interval for runtime_* gauges")
		slowThreshold = flag.Duration("slow-query-threshold", 0, "capture requests at least this slow to /debug/slowqueries (0 = off)")
		slowOut       = flag.String("slow-query-out", "", "append slow-query records as JSON lines to this file")
		slowRing      = flag.Int("slow-query-ring", 0, "slow-query records retained in memory (0 = default 128)")

		sloFast     = flag.Duration("slo-fast-window", 0, "SLO fast burn-rate window (0 = default 1m)")
		sloSlow     = flag.Duration("slo-slow-window", 0, "SLO slow burn-rate window (0 = default 10m)")
		sloPeriod   = flag.Duration("slo-period", 0, "SLO window rotation and evaluation period (0 = default 10s)")
		profTrig    = flag.Bool("profile-triggers", false, "capture CPU/heap/goroutine profile bundles on SLO breach and slow-query triggers (/debug/profiles)")
		profDir     = flag.String("profile-dir", "", "also write each captured profile bundle to this directory")
		profMinIval = flag.Duration("profile-min-interval", 0, "min time between profile captures (0 = default 30s)")
		profCPU     = flag.Duration("profile-cpu", 0, "CPU profile sampling duration per capture (0 = default 2s)")
		readyHeap   = flag.Uint64("max-heap-bytes", 0, "fail /readyz when live heap exceeds this many bytes (0 = no heap check)")
		readySnap   = flag.Duration("ready-snapshot-max-age", 0, "fail /readyz when the last persisted snapshot is older (0 = 3x -snapshot-interval)")
		drainGrace  = flag.Duration("drain-grace", 0, "hold /readyz at 503 this long before closing the listener on shutdown, so load balancers drain first")
	)
	var sloSpecs slo.ObjectiveFlag
	flag.Var(&sloSpecs, "slo", "per-endpoint SLO spec, repeatable: \"component,p99=5ms\" or \"endpoint=pagerank,p50=1ms,p99=20ms,avail=99.9%,name=pr\"")
	par.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: graphd [flags]\nunexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	reg := telemetry.Default()
	sampler := obsv.StartSampler(reg, *metricsSample)
	defer sampler.Stop()

	if *shardCount > 1 && *listenWire == "" {
		return fmt.Errorf("-shard-count %d requires -listen-wire: the coordinator exchanges shard ops over the wire protocol", *shardCount)
	}
	cfg.ShardIndex = *shardIndex
	cfg.ShardCount = *shardCount
	cfg.Vertices = int32(*vertices)
	cfg.Directed = *directed
	cfg.SnapshotPath = *snapshot
	cfg.SnapshotEvery = *snapEvery
	cfg.QueueCap = *queueCap
	cfg.BatchSize = *batchSize
	cfg.FlushEvery = *flushEvery
	cfg.MaxInflight = *maxInflight
	cfg.MaxPendingEdits = *maxPending
	cfg.DefaultTimeout = *defTimeout
	cfg.MaxTimeout = *maxTimeout
	cfg.Registry = reg
	cfg.SlowQueryThreshold = *slowThreshold
	cfg.SlowQueryRing = *slowRing
	cfg.SLOObjectives = sloSpecs.Objectives
	cfg.SLOFastWindow = *sloFast
	cfg.SLOSlowWindow = *sloSlow
	cfg.SLOPeriod = *sloPeriod
	cfg.ProfileTriggers = *profTrig
	cfg.ProfileDir = *profDir
	cfg.ProfileMinInterval = *profMinIval
	cfg.ProfileCPUDuration = *profCPU
	cfg.ReadyMaxHeapBytes = *readyHeap
	cfg.ReadySnapshotMaxAge = *readySnap
	if *slowOut != "" {
		f, err := os.OpenFile(*slowOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open -slow-query-out: %w", err)
		}
		defer f.Close()
		cfg.SlowQueryOut = f
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *shardCount > 1 {
		st := srv.StatsNow()
		fmt.Fprintf(os.Stderr, "graphd: shard %d/%d, owns %d of %d vertices\n",
			*shardIndex, *shardCount, st.OwnedVertices, st.Vertices)
	}
	if srv.Recovered() {
		st := srv.StatsNow()
		fmt.Fprintf(os.Stderr, "graphd: recovered %d edges over %d vertices from %s\n",
			st.Edges, st.Vertices, *snapshot)
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "graphd: serving on %s\n", *listen)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	var wireLn net.Listener
	if *listenWire != "" {
		wireLn, err = net.Listen("tcp", *listenWire)
		if err != nil {
			return fmt.Errorf("listen -listen-wire: %w", err)
		}
		go func() {
			fmt.Fprintf(os.Stderr, "graphd: wire protocol on %s\n", wireLn.Addr())
			if err := srv.ServeWire(wireLn); err != nil {
				errCh <- fmt.Errorf("wire listener: %w", err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "graphd: %v — draining\n", sig)
	}

	// Graceful drain, in load-balancer order: first flip /readyz to 503 and
	// hold the listener open for the drain-grace window so balancers stop
	// routing here (liveness /healthz stays 200 — a restart now would lose
	// queued updates); then stop the listener (in-flight requests finish);
	// then drain the ingest queue and write the final snapshot.
	srv.BeginDrain()
	if *drainGrace > 0 {
		fmt.Fprintf(os.Stderr, "graphd: not-ready, holding %v for balancers to drain\n", *drainGrace)
		time.Sleep(*drainGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if wireLn != nil {
		wireLn.Close() // stop accepting; srv.Shutdown closes live sessions
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "graphd: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	st := srv.StatsNow()
	fmt.Fprintf(os.Stderr, "graphd: drained; %d updates applied, %d edges persisted\n",
		st.Applied, st.Edges)
	return nil
}
