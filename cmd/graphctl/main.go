// Command graphctl is the cluster coordinator for sharded graphd: it
// fronts N graphd shard processes (each started with -shard-index/
// -shard-count and a wire listener) behind graphd's own HTTP front end —
// the same API, batch, tracing and request metrics a single graphd serves.
// Queries (component, khop, jaccard, topdegree, pagerank) are routed to
// owning shards or driven as BSP supersteps over the wire protocol's
// shard-exchange ops; ingest fans out along the partition with the same
// 202/429-with-accepted-prefix contract; /readyz aggregates per-shard
// health into one load-balancer signal. See docs/CLUSTER.md for topology,
// failure modes, and a quickstart.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obsv"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphctl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen        = flag.String("listen", ":8095", "HTTP address serving the cluster query/ingest API and telemetry")
		shards        = flag.String("shards", "", "comma-separated shard wire addresses in partition-index order (required)")
		shardHTTP     = flag.String("shard-http", "", "comma-separated shard HTTP addresses for /readyz polling, same order as -shards (empty = wire-only health)")
		vertices      = flag.Int("vertices", 1<<16, "shared vertex-ID space [0,n); must match every shard's -vertices")
		directed      = flag.Bool("directed", false, "shards store directed graphs; must match every shard's -directed")
		defTimeout    = flag.Duration("default-timeout", 2*time.Second, "query deadline when the client sends no ?timeout=")
		maxTimeout    = flag.Duration("max-timeout", 30*time.Second, "upper clamp on client-supplied ?timeout=")
		pollInterval  = flag.Duration("poll-interval", time.Second, "shard health-poll cadence")
		drainGrace    = flag.Duration("drain-grace", 0, "hold the listener open this long after SIGTERM so balancers drain first")
		metricsSample = flag.Duration("runtime-sample", 5*time.Second, "runtime/metrics sampling interval for runtime_* gauges")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: graphctl [flags]\nunexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *shards == "" {
		return fmt.Errorf("-shards is required (comma-separated wire addresses in partition-index order)")
	}
	wireAddrs := splitAddrs(*shards)
	var httpAddrs []string
	if *shardHTTP != "" {
		httpAddrs = splitAddrs(*shardHTTP)
		if len(httpAddrs) != len(wireAddrs) {
			return fmt.Errorf("-shard-http lists %d addresses, -shards lists %d; they must pair up by index", len(httpAddrs), len(wireAddrs))
		}
	}
	addrs := make([]cluster.ShardAddr, len(wireAddrs))
	for i, w := range wireAddrs {
		addrs[i] = cluster.ShardAddr{Wire: w}
		if httpAddrs != nil {
			addrs[i].HTTP = httpAddrs[i]
		}
	}

	reg := telemetry.Default()
	sampler := obsv.StartSampler(reg, *metricsSample)
	defer sampler.Stop()

	coord, err := cluster.New(cluster.Config{
		Vertices:       int32(*vertices),
		Directed:       *directed,
		Shards:         addrs,
		Registry:       reg,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		PollInterval:   *pollInterval,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	httpSrv := &http.Server{Addr: *listen, Handler: server.ClusterHandler(coord, reg)}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "graphctl: coordinating %d shards, serving on %s\n", coord.ShardCount(), *listen)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "graphctl: %v — shutting down\n", sig)
	}
	// The coordinator holds no durable state — shards own the data — so
	// shutdown is just: let balancers drain, finish in-flight requests, stop.
	if *drainGrace > 0 {
		fmt.Fprintf(os.Stderr, "graphctl: holding %v for balancers to drain\n", *drainGrace)
		time.Sleep(*drainGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "graphctl: http shutdown: %v\n", err)
	}
	return nil
}

// splitAddrs splits a comma-separated address list, trimming whitespace.
func splitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
