// Command flowdemo drives the canonical graph processing flow of Fig. 2
// end to end (experiment E2): batch build from an R-MAT edge set, a batch
// analytic with property write-back, then a streaming update phase whose
// threshold triggers escalate into subgraph extraction + analytics + alerts.
// All stages report through the shared telemetry registry; use
// -metrics-out/-trace-out to capture the run as a machine-readable artifact
// or -listen to scrape it live.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/streaming"
	"repro/internal/telemetry"
)

func main() {
	scale := flag.Int("scale", 12, "R-MAT scale for the persistent graph")
	updates := flag.Int("updates", 20000, "streaming updates to apply")
	trigger := flag.Int64("trigger", 150, "triangle-delta trigger threshold")
	par.RegisterFlags(flag.CommandLine)
	tel := telemetry.NewCLI(flag.CommandLine, telemetry.Default())
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "flowdemo: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *scale < 1 || *scale > 26 {
		fmt.Fprintf(os.Stderr, "flowdemo: -scale %d out of range [1,26]\n", *scale)
		os.Exit(2)
	}
	if *updates < 0 {
		fmt.Fprintf(os.Stderr, "flowdemo: -updates must be non-negative, got %d\n", *updates)
		os.Exit(2)
	}
	err := tel.Run(func() error {
		defer obsv.StartSampler(tel.Registry, 0).Stop()
		return run(*scale, *updates, *trigger, tel.Registry)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowdemo:", err)
		os.Exit(1)
	}
}

func run(scale, updates int, trigger int64, reg *telemetry.Registry) error {
	n := int32(1) << scale
	f := flow.NewWith(gen.RMAT(scale, 8, gen.Graph500RMAT, 1, false), reg)
	fmt.Printf("persistent graph: %d vertices, %d edges\n", n, f.Graph().NumEdges())
	f.ExtractDepth = 1
	f.RegisterAnalytic("pagerank", flow.PageRankAnalytic)
	f.RegisterAnalytic("triangles", flow.TriangleAnalytic)
	f.RegisterAnalytic("jaccard", flow.JaccardAnalytic)
	f.StreamAnalytic = "triangles"
	f.Engine().AddTrigger(streaming.NewTriangleDeltaTrigger(trigger))

	// Batch analytic around the top-degree seeds, with write-back.
	ex, global, err := f.RunBatch(flow.SeedCriteria{K: 8}, 2, "pagerank", nil)
	if err != nil {
		return err
	}
	fmt.Printf("batch: extracted %d vertices, pagerank iters %.0f, wrote back %d values\n",
		ex.Sub.NumVertices(), global["pagerank_iters"], ex.Sub.NumVertices())

	// Streaming phase.
	ups := gen.EdgeUpdateStream(scale, updates, 0.05, 99)
	applied, triggered, err := f.ProcessUpdates(ups)
	if err != nil {
		return err
	}
	alerts := f.Alerts()
	fmt.Printf("stream: applied %d updates, %d trigger escalations, %d alerts\n",
		applied, triggered, len(alerts))
	for i, a := range alerts {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(alerts)-5)
			break
		}
		fmt.Printf("  alert #%d from %s at seq %d: %s (global %v)\n",
			i, a.Source, a.Seq, a.Message, a.Global)
	}

	st := f.Stats()
	fmt.Println("\nstage instrumentation (the paper's 'explicit instrumentation'):")
	for _, row := range []struct {
		name string
		s    flow.StageStats
	}{
		{"build", st.Build}, {"select", st.Select}, {"extract", st.Extract},
		{"analytic", st.Analytic}, {"write-back", st.WriteBack},
		{"stream-in", st.StreamIn}, {"triggered", st.Triggered},
	} {
		fmt.Printf("  %-10s invocations=%-6d items=%-8d elapsed=%v\n",
			row.name, row.s.Invocations, row.s.Items, row.s.Elapsed)
	}
	return nil
}
