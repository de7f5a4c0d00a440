package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/obsv"
	"repro/internal/telemetry"
)

// RunResult is one kernel execution's outcome on a workload graph.
type RunResult struct {
	Kernel  string
	Elapsed time.Duration
	Summary string
	// Latency is the cumulative per-kernel latency histogram from the
	// registry the run reported through (all executions of this kernel so
	// far, not just this one).
	Latency telemetry.HistogramSnapshot
	// Account is this execution's resource bill: wall time, TEPS
	// (items = graph edges), allocation deltas, and parallel-scheduler
	// activity attributed to the kernel.
	Account obsv.Account
}

// Runner executes a batch kernel against a graph and summarizes its output.
type Runner func(g *graph.Graph) string

// runners binds taxonomy rows to executable batch implementations on a
// shared undirected workload graph. Streaming rows are exercised by the
// streaming engine (`graphbench streams`), not here.
var runners = map[string]Runner{
	"BFS": func(g *graph.Graph) string {
		res := kernels.BFSParallel(g, 0)
		return fmt.Sprintf("visited=%d", res.Visited)
	},
	"SSSP": func(g *graph.Graph) string {
		res := kernels.DeltaSteppingParallel(g, 0, 1)
		reached := 0
		for _, d := range res.Dist {
			if d < kernels.Inf {
				reached++
			}
		}
		return fmt.Sprintf("reached=%d", reached)
	},
	"CCW": func(g *graph.Graph) string {
		cc := kernels.WCC(g)
		return fmt.Sprintf("components=%d", cc.NumComponents)
	},
	"CCS": func(g *graph.Graph) string {
		cc := kernels.SCC(g)
		return fmt.Sprintf("components=%d", cc.NumComponents)
	},
	"PR": func(g *graph.Graph) string {
		_, iters := kernels.PageRank(g, kernels.DefaultPageRankOptions())
		return fmt.Sprintf("iters=%d", iters)
	},
	"BC": func(g *graph.Graph) string {
		bc := kernels.ApproxBetweenness(g, 32, 1)
		top := kernels.TopKByScore(bc, 1)
		return fmt.Sprintf("top=v%d(%.1f)", top[0].V, top[0].Score)
	},
	"GTC": func(g *graph.Graph) string {
		return fmt.Sprintf("triangles=%d", kernels.GlobalTriangleCount(g))
	},
	"TL": func(g *graph.Graph) string {
		return fmt.Sprintf("listed=%d", len(kernels.TriangleList(g)))
	},
	"CCO": func(g *graph.Graph) string {
		cc := kernels.ClusteringCoefficients(g)
		sum := 0.0
		for _, c := range cc {
			sum += c
		}
		return fmt.Sprintf("meanCC=%.4f", sum/float64(len(cc)))
	},
	"CD": func(g *graph.Graph) string {
		lp := kernels.LabelPropagation(g, 20, 1)
		lv := kernels.Louvain(g, 4, 8)
		return fmt.Sprintf("LP:%d(Q=%.3f) Louvain:%d(Q=%.3f)",
			lp.NumCommunities, lp.Modularity, lv.NumCommunities, lv.Modularity)
	},
	"GC": func(g *graph.Graph) string {
		res := kernels.LabelPropagation(g, 20, 1)
		cg, _ := kernels.Contract(g, res.Label)
		return fmt.Sprintf("contracted=%dv/%de", cg.NumVertices(), cg.NumEdges())
	},
	"GP": func(g *graph.Graph) string {
		p := kernels.Partition(g, 4, 4)
		return fmt.Sprintf("cut=%d", p.EdgeCut)
	},
	"MIS": func(g *graph.Graph) string {
		return fmt.Sprintf("|MIS|=%d", len(kernels.MISLuby(g, 1)))
	},
	"Jaccard": func(g *graph.Graph) string {
		pairs := kernels.JaccardAllParallel(g, 2, 0.1, 100)
		return fmt.Sprintf("pairs>=0.1: %d", len(pairs))
	},
	"SearchLargest": func(g *graph.Graph) string {
		top := kernels.TopKByDegree(g, 1)
		return fmt.Sprintf("maxdeg=v%d(%.0f)", top[0].V, top[0].Score)
	},
	"APSP": func(g *graph.Graph) string {
		// Quadratic output class: run on the 2-hop neighborhood of vertex 0.
		region := kernels.KHopNeighborhood(g, []int32{0}, 2)
		if len(region) > 512 {
			region = region[:512]
		}
		sub, _ := graph.InducedSubgraph(g, region)
		r := kernels.APSP(sub)
		d, _, _ := kernels.Diameter(r)
		return fmt.Sprintf("region=%d diam=%.0f", sub.NumVertices(), d)
	},
	"GeoTemporal": func(g *graph.Graph) string {
		// The registry's workload graph is untimestamped; synthesize
		// deterministic timestamps (arc-order) so the temporal kernel has
		// real structure to correlate.
		b := graph.NewBuilder(g.NumVertices()).Timestamped()
		var t int64
		for v := int32(0); v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(v) {
				if w > v {
					b.AddEdge(graph.Edge{Src: v, Dst: w, Time: t})
					b.AddEdge(graph.Edge{Src: w, Dst: v, Time: t})
					t++
				}
			}
		}
		tg := b.Build()
		corr := kernels.TemporallyCorrelated(tg, 64, 2, 0.5)
		return fmt.Sprintf("correlated-pairs=%d", len(corr))
	},
	"SI": func(g *graph.Graph) string {
		// Count 4-cycles in a bounded region (quadratic output class).
		region := kernels.KHopNeighborhood(g, []int32{0}, 2)
		if len(region) > 256 {
			region = region[:256]
		}
		sub, _ := graph.InducedSubgraph(g, region)
		pattern := graph.FromEdges(4, false, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
		m := kernels.SubgraphIsomorphism(pattern, sub, 1000)
		return fmt.Sprintf("embeddings=%d(cap 1000)", len(m))
	},
}

// RunnableKernels lists the batch kernels the registry can execute.
func RunnableKernels() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one kernel by taxonomy name, reporting through the
// process-wide telemetry registry.
func Run(name string, g *graph.Graph) (RunResult, error) {
	return RunWith(telemetry.Default(), name, g)
}

// RunWith executes one kernel by taxonomy name. Each execution is recorded
// in reg as a core_kernel_seconds{kernel=...} histogram observation plus a
// core_kernel_runs_total counter, and runs under a traced span.
func RunWith(reg *telemetry.Registry, name string, g *graph.Graph) (RunResult, error) {
	r, ok := runners[name]
	if !ok {
		return RunResult{}, fmt.Errorf("core: kernel %q has no batch runner", name)
	}
	l := telemetry.L("kernel", name)
	hist := reg.Histogram("core_kernel_seconds", l)
	reg.Counter("core_kernel_runs_total", l).Inc()
	sp := reg.Tracer().Start("core.Run", l)
	meter := obsv.StartMeter(name)
	summary := r(g)
	acct := meter.Stop(g.NumEdges())
	for _, attr := range acct.SpanAttrs() {
		sp.SetAttr(attr.Key, attr.Value)
	}
	sp.End()
	hist.ObserveDuration(acct.Wall)
	acct.Publish(reg)
	return RunResult{
		Kernel: name, Elapsed: acct.Wall, Summary: summary,
		Latency: hist.Snapshot(),
		Account: acct,
	}, nil
}

// RunAll executes every runnable kernel on g, in name order, reporting
// through the process-wide telemetry registry.
func RunAll(g *graph.Graph) []RunResult { return RunAllWith(telemetry.Default(), g) }

// RunAllWith executes every runnable kernel on g, in name order, reporting
// through reg.
func RunAllWith(reg *telemetry.Registry, g *graph.Graph) []RunResult {
	var out []RunResult
	for _, name := range RunnableKernels() {
		res, err := RunWith(reg, name, g)
		if err != nil {
			continue
		}
		out = append(out, res)
	}
	return out
}
