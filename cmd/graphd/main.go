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
// for the runbook, which lists every flag. A bad command line exits 2; a
// failure to start or drain exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
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

// usageError is a command line naming an unknown flag, a bad value or a
// stray argument.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "graphd:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// options is graphd's command line: the server config and what main does
// around the server.
type options struct {
	cfg                      server.Config
	vertices                 int
	slos                     slo.ObjectiveFlag
	listen, listenWire       string
	slowOut                  string
	drainTimeout, drainGrace time.Duration
}

// newFlagSet registers graphd's flags on a new FlagSet, writing into o,
// whose cfg holds the defaults.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("graphd", flag.ContinueOnError)
	c := &o.cfg
	fs.StringVar(&o.listen, "listen", ":8090", "HTTP address serving the query/ingest API and telemetry")
	fs.StringVar(&o.listenWire, "listen-wire", "", "TCP address serving the binary wire protocol (empty = disabled)")
	fs.IntVar(&c.ShardIndex, "shard-index", 0, "this process's partition index in a graphctl cluster (requires -shard-count)")
	fs.IntVar(&c.ShardCount, "shard-count", 0, "total shards in the cluster (0 or 1 = standalone); shard mode requires -listen-wire")
	fs.IntVar(&o.vertices, "vertices", int(c.Vertices), "vertex-ID space [0,n), 1 <= n <= 2^31-1; ingest outside it is rejected")
	fs.BoolVar(&c.Directed, "directed", c.Directed, "store a directed graph")
	fs.StringVar(&c.SnapshotPath, "snapshot", "", "snapshot file for periodic persistence and crash recovery (empty = volatile)")
	fs.DurationVar(&c.SnapshotEvery, "snapshot-interval", c.SnapshotEvery, "periodic snapshot interval (<=0 = only on shutdown)")
	fs.IntVar(&c.QueueCap, "queue", c.QueueCap, "ingest queue capacity in updates (full queue = 429 backpressure)")
	fs.DurationVar(&c.FlushEvery, "flush-interval", c.FlushEvery, "max time an update waits in a partial batch")
	fs.IntVar(&c.MaxPendingEdits, "max-pending-edits", 0, "bound on applied edits no published version reflects; an unread stretch past it makes the catch-up build recompute in full (0 = default 262144)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "max time to drain the ingest queue on shutdown")
	fs.DurationVar(&c.SlowQueryThreshold, "slow-query-threshold", 0, "capture requests at least this slow to /debug/slowqueries (0 = off)")
	fs.StringVar(&o.slowOut, "slow-query-out", "", "append slow-query records as JSON lines to this file")
	fs.Var(&o.slos, "slo", "per-endpoint SLO spec, repeatable: \"component,p99=5ms\" or \"endpoint=pagerank,p50=1ms,p99=20ms,avail=99.9%,name=pr\"")
	fs.BoolVar(&c.ProfileTriggers, "profile-triggers", false, "capture CPU/heap/goroutine profile bundles on SLO breach and slow-query triggers (/debug/profiles)")
	fs.StringVar(&c.ProfileDir, "profile-dir", "", "also write each captured profile bundle to this directory")
	fs.Uint64Var(&c.ReadyMaxHeapBytes, "max-heap-bytes", 0, "fail /readyz when live heap exceeds this many bytes (0 = no heap check)")
	fs.DurationVar(&o.drainGrace, "drain-grace", 0, "hold /readyz at 503 this long before closing the listener on shutdown, so load balancers drain first")
	par.RegisterFlags(fs)
	return fs
}

func run(args []string) error {
	o := options{cfg: server.DefaultConfig()}
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	cfg := o.cfg
	switch {
	case fs.NArg() > 0:
		fs.Usage()
		return usageError{fmt.Errorf("unexpected arguments: %v", fs.Args())}
	case o.vertices < 1 || o.vertices > math.MaxInt32:
		return usageError{fmt.Errorf("-vertices %d out of range [1, %d]", o.vertices, math.MaxInt32)}
	case cfg.ShardCount < 0:
		return usageError{fmt.Errorf("-shard-count %d is negative", cfg.ShardCount)}
	case cfg.ShardIndex < 0:
		return usageError{fmt.Errorf("-shard-index %d is negative", cfg.ShardIndex)}
	case cfg.ShardCount > 1 && o.listenWire == "":
		return usageError{fmt.Errorf("-shard-count %d requires -listen-wire: the coordinator exchanges shard ops over the wire protocol", cfg.ShardCount)}
	}
	cfg.Vertices = int32(o.vertices)
	cfg.SLOObjectives = o.slos.Objectives

	reg := telemetry.Default()
	sampler := obsv.StartSampler(reg, 5*time.Second) // runtime_* gauges
	defer sampler.Stop()
	cfg.Registry = reg
	if o.slowOut != "" {
		f, err := os.OpenFile(o.slowOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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
	if cfg.ShardCount > 1 {
		st := srv.StatsNow()
		fmt.Fprintf(os.Stderr, "graphd: shard %d/%d, owns %d of %d vertices\n",
			cfg.ShardIndex, cfg.ShardCount, st.OwnedVertices, st.Vertices)
	}
	if srv.Recovered() {
		st := srv.StatsNow()
		fmt.Fprintf(os.Stderr, "graphd: recovered %d edges over %d vertices from %s\n",
			st.Edges, st.Vertices, cfg.SnapshotPath)
	}

	httpSrv := &http.Server{Addr: o.listen, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "graphd: serving on %s\n", o.listen)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	var wireLn net.Listener
	if o.listenWire != "" {
		wireLn, err = net.Listen("tcp", o.listenWire)
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
	if o.drainGrace > 0 {
		fmt.Fprintf(os.Stderr, "graphd: not-ready, holding %v for balancers to drain\n", o.drainGrace)
		time.Sleep(o.drainGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
