package flow

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/streaming"
)

// ComposedBenchmark is the multi-kernel, combined batch+streaming benchmark
// the paper's conclusion calls for ("develop a multi-kernel benchmark that
// mirrors Fig. 2, especially in the combined batch and streaming mode") and
// attributes to VAST-style composed problems. One run executes, against a
// single persistent graph:
//
//  1. batch build from a generated edge set,
//  2. a whole-graph pass (components + PageRank written back as properties),
//  3. seed selection from the freshly computed PageRank property,
//  4. subgraph extraction and a heavier analytic (triangles + clustering),
//  5. a streaming phase with a triangle-delta trigger escalating into
//     Jaccard analytics on the disturbed region,
//  6. a final top-k report over accumulated properties.
//
// Every phase is timed; the result is one comparable scalar per phase plus
// totals, which bench_test.go exposes as the composed-benchmark series.
type ComposedBenchmark struct {
	Scale        int
	Updates      int
	TriggerDelta int64
	Seed         int64
}

// ComposedResult carries per-phase durations and outcome counts.
type ComposedResult struct {
	Phase       map[string]time.Duration
	Vertices    int32
	Edges       int64
	Components  int32
	Extracted   int32
	Triangles   int64
	Escalations int
	TopVertex   int32
}

// Run executes the composed benchmark.
func (cb ComposedBenchmark) Run() (*ComposedResult, error) {
	n := int32(1) << cb.Scale
	res := &ComposedResult{Phase: make(map[string]time.Duration)}
	phase := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		res.Phase[name] = time.Since(start)
		return err
	}

	// 1. Build.
	var f *Flow
	if err := phase("build", func() error {
		f = New(gen.RMAT(cb.Scale, 8, gen.Graph500RMAT, cb.Seed, false))
		res.Vertices = n
		res.Edges = f.Graph().NumEdges()
		return nil
	}); err != nil {
		return nil, err
	}
	f.ExtractDepth = 1
	f.RegisterAnalytic("triangles", TriangleAnalytic)
	f.RegisterAnalytic("jaccard", JaccardAnalytic)
	f.StreamAnalytic = "jaccard"
	f.Engine().AddTrigger(streaming.NewTriangleDeltaTrigger(cb.TriggerDelta))

	// 2. Whole-graph pass with write-back.
	var snap *graph.Graph
	if err := phase("global-analytics", func() error {
		snap = f.Graph().Snapshot()
		cc := kernels.WCC(snap)
		res.Components = cc.NumComponents
		pr, _ := kernels.PageRank(snap, kernels.DefaultPageRankOptions())
		return f.Properties().SetNumericColumn("pagerank", pr)
	}); err != nil {
		return nil, err
	}

	// 3+4. Seeded extraction and heavy analytic.
	if err := phase("extract-analyze", func() error {
		ex, global, err := f.RunBatch(SeedCriteria{TopKProperty: "pagerank", K: 8}, 2, "triangles", []string{"pagerank"})
		if err != nil {
			return err
		}
		res.Extracted = ex.Sub.NumVertices()
		res.Triangles = int64(global["triangles"])
		return nil
	}); err != nil {
		return nil, err
	}

	// 5. Streaming phase.
	if err := phase("streaming", func() error {
		updates := gen.EdgeUpdateStream(cb.Scale, cb.Updates, 0.05, cb.Seed+1)
		_, escalations, err := f.ProcessUpdates(updates)
		res.Escalations = escalations
		return err
	}); err != nil {
		return nil, err
	}

	// 6. Report.
	return res, phase("report", func() error {
		col, ok := f.Properties().NumericColumn("pagerank")
		if !ok {
			return fmt.Errorf("flow: pagerank column lost")
		}
		top := kernels.TopKByScore(col, 1)
		res.TopVertex = top[0].V
		return nil
	})
}
