// Command graphctl is the cluster coordinator for sharded graphd: it
// fronts N graphd shard processes (each started with -shard-index/
// -shard-count and a wire listener) behind graphd's own HTTP front end —
// the same API, batch, tracing and request metrics a single graphd serves.
// Queries (component, khop, jaccard, topdegree, pagerank) are routed to
// owning shards or driven as BSP supersteps over the wire protocol's
// shard-exchange ops; ingest fans out along the partition with the same
// 202/429-with-accepted-prefix contract; /readyz aggregates the readiness
// each shard reports in its shard.meta answers into one load-balancer
// signal. See docs/CLUSTER.md for topology, failure modes, and a
// quickstart, and docs/OPERATIONS.md for the flags. A bad command line
// exits 2; a failure to start exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
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

// usageError is a command line naming an unknown flag, a bad value, a
// stray argument, or no shards.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "graphctl:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// options is graphctl's command line: the coordinator config and what main
// does around the coordinator.
type options struct {
	cfg            cluster.Config
	vertices       int
	listen, shards string
	drainGrace     time.Duration
}

// newFlagSet registers graphctl's flags on a new FlagSet, writing into o.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("graphctl", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", ":8095", "HTTP address serving the cluster query/ingest API and telemetry")
	fs.StringVar(&o.shards, "shards", "", "comma-separated shard wire addresses in partition-index order (required)")
	fs.IntVar(&o.vertices, "vertices", 1<<16, "shared vertex-ID space [0,n), 1 <= n <= 2^31-1; must match every shard's -vertices")
	fs.BoolVar(&o.cfg.Directed, "directed", false, "shards store directed graphs; must match every shard's -directed")
	fs.DurationVar(&o.cfg.PollInterval, "poll-interval", time.Second, "shard health-poll cadence")
	fs.DurationVar(&o.drainGrace, "drain-grace", 0, "hold /readyz at 503 this long after SIGTERM before closing the listener, so balancers drain first")
	return fs
}

func run(args []string) error {
	var o options
	fs := newFlagSet(&o)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	cfg := o.cfg
	cfg.Shards = splitAddrs(o.shards)
	switch {
	case fs.NArg() > 0:
		fs.Usage()
		return usageError{fmt.Errorf("unexpected arguments: %v", fs.Args())}
	case o.vertices < 1 || o.vertices > math.MaxInt32:
		return usageError{fmt.Errorf("-vertices %d out of range [1, %d]", o.vertices, math.MaxInt32)}
	case len(cfg.Shards) == 0:
		return usageError{errors.New("-shards is required (comma-separated wire addresses in partition-index order)")}
	}
	cfg.Vertices = int32(o.vertices)
	cfg.Registry = telemetry.Default()
	sampler := obsv.StartSampler(cfg.Registry, 5*time.Second) // runtime_* gauges
	defer sampler.Stop()

	coord, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()

	api := server.ClusterHandler(coord, cfg.Registry)
	httpSrv := &http.Server{Addr: o.listen, Handler: api}
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "graphctl: coordinating %d shards, serving on %s\n", coord.ShardCount(), o.listen)
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
	// shutdown is just: flip /readyz to 503, let balancers drain, finish
	// in-flight requests, stop.
	api.BeginDrain()
	if o.drainGrace > 0 {
		fmt.Fprintf(os.Stderr, "graphctl: not-ready, holding %v for balancers to drain\n", o.drainGrace)
		time.Sleep(o.drainGrace)
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
