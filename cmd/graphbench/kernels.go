package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/telemetry"
)

// kernelsCmd runs the full Fig. 1 batch-kernel spectrum against a generated
// workload graph and prints per-kernel timings, or prints the taxonomy
// coverage matrix, or runs the Graph500-style BFS+SSSP harness (experiment
// E1 in DESIGN.md).
func kernelsCmd(fs *flag.FlagSet) (func() error, func(*telemetry.Registry) error) {
	scale := fs.Int("scale", 14, "R-MAT scale (2^scale vertices)")
	ef := fs.Int("ef", 16, "edge factor")
	seed := fs.Int64("seed", 42, "generator seed")
	coverage := fs.Bool("coverage", false, "print the Fig. 1 coverage matrix and exit")
	kernel := fs.String("kernel", "", "run a single kernel by taxonomy name")
	g500 := fs.Bool("graph500", false, "run the Graph500-style BFS+SSSP harness and exit")
	family := fs.String("gen", "rmat", "graph family: rmat, ba (preferential attachment), ws (small world), er")
	check := func() error {
		if *scale < 1 || *scale > 30 {
			return fmt.Errorf("-scale %d out of range [1,30]", *scale)
		}
		if *ef < 1 {
			return fmt.Errorf("-ef must be positive, got %d", *ef)
		}
		return nil
	}
	return check, func(reg *telemetry.Registry) error {
		if *coverage {
			core.RenderCoverage(os.Stdout)
			return nil
		}
		if *g500 {
			spec := graph500.DefaultSpec(*scale)
			spec.EdgeFactor, spec.Seed = *ef, *seed
			bfs, err := graph500.RunBFS(spec)
			if err != nil {
				return err
			}
			bfs.Render(os.Stdout, "bfs")
			fmt.Println()
			sssp, err := graph500.RunSSSP(spec)
			if err != nil {
				return err
			}
			sssp.Render(os.Stdout, "sssp")
			return nil
		}

		fmt.Printf("generating %s scale=%d edgefactor=%d seed=%d ...\n", *family, *scale, *ef, *seed)
		gsp := reg.Tracer().Start("graphbench.generate", telemetry.L("family", *family))
		var g *graph.Graph
		switch *family {
		case "rmat":
			g = gen.RMAT(*scale, *ef, gen.Graph500RMAT, *seed, false)
		case "ba":
			g = gen.BarabasiAlbert(1<<*scale, *ef/2+1, *seed)
		case "ws":
			g = gen.WattsStrogatz(1<<*scale, *ef, 0.1, *seed)
		case "er":
			g = gen.ErdosRenyi(1<<*scale, (1<<*scale)*(*ef)/2, *seed, false)
		default:
			gsp.End()
			return fmt.Errorf("unknown -gen %q (rmat|ba|ws|er)", *family)
		}
		gsp.End()
		st := graph.ComputeStats(g)
		fmt.Printf("graph: %d vertices, %d arcs, degree mean %.1f max %d\n\n",
			st.NumVertices, st.NumArcs, st.MeanDegree, st.MaxDegree)
		reg.Gauge("graphbench_vertices").Set(float64(st.NumVertices))
		reg.Gauge("graphbench_arcs").Set(float64(st.NumArcs))
		reg.Gauge("graphbench_max_degree").Set(float64(st.MaxDegree))

		if *kernel != "" {
			res, err := core.RunWith(reg, *kernel, g)
			if err != nil {
				return err
			}
			fmt.Printf("%-14s %12v  %s\n", res.Kernel, res.Elapsed, res.Summary)
			return nil
		}
		tb := bench.NewTable("kernel", "time", "result")
		for _, res := range core.RunAllWith(reg, g) {
			tb.Add(res.Kernel, res.Elapsed.String(), res.Summary)
		}
		tb.Render(os.Stdout)
		return nil
	}
}
