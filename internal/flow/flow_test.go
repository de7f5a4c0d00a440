package flow

import (
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/streaming"
)

func builtFlow(t *testing.T) *Flow {
	t.Helper()
	return New(gen.RMAT(8, 8, gen.Graph500RMAT, 5, false))
}

func TestBuildAndStats(t *testing.T) {
	f := builtFlow(t)
	if f.Graph().NumEdges() == 0 {
		t.Fatal("no edges loaded")
	}
	st := f.Stats()
	if st.Build.Invocations != 1 || st.Build.Items == 0 {
		t.Fatalf("build stats = %+v", st.Build)
	}
}

func TestSelectSeeds(t *testing.T) {
	f := builtFlow(t)
	// Explicit.
	seeds := f.SelectSeeds(SeedCriteria{Explicit: []int32{3, 7}})
	if len(seeds) != 2 || seeds[0] != 3 {
		t.Fatalf("explicit seeds = %v", seeds)
	}
	// Top-k by property.
	f.Properties().SetNumeric("score", 9, 100)
	f.Properties().SetNumeric("score", 4, 50)
	seeds = f.SelectSeeds(SeedCriteria{TopKProperty: "score", K: 2})
	if len(seeds) != 2 || seeds[0] != 9 || seeds[1] != 4 {
		t.Fatalf("topk seeds = %v", seeds)
	}
	// Degree fallback.
	seeds = f.SelectSeeds(SeedCriteria{K: 3})
	if len(seeds) != 3 {
		t.Fatalf("degree seeds = %v", seeds)
	}
	// MinDegree filter.
	seeds = f.SelectSeeds(SeedCriteria{Explicit: []int32{seeds[0]}, MinDegree: 1<<30 - 1})
	if len(seeds) != 0 {
		t.Fatal("min-degree filter failed")
	}
}

func TestExtractAndProjection(t *testing.T) {
	f := builtFlow(t)
	f.Properties().SetNumeric("score", 0, 5)
	seeds := f.SelectSeeds(SeedCriteria{K: 1})
	ex := f.Extract(seeds, 1, []string{"score"})
	if ex.Sub.NumVertices() == 0 || len(ex.Vertices) != int(ex.Sub.NumVertices()) {
		t.Fatal("extraction empty or inconsistent")
	}
	// The seed appears as local 0 with its property projected.
	if ex.Vertices[0] != seeds[0] {
		t.Fatal("seed should be local 0")
	}
	// Depth-1 extraction includes exactly seed + its neighbors.
	want := 1 + int(f.Graph().Degree(seeds[0]))
	if int(ex.Sub.NumVertices()) != want {
		t.Fatalf("extraction size %d, want %d", ex.Sub.NumVertices(), want)
	}
}

func TestRunBatchWritesBack(t *testing.T) {
	f := builtFlow(t)
	f.RegisterAnalytic("pagerank", PageRankAnalytic)
	ex, global, err := f.RunBatch(SeedCriteria{K: 2}, 2, "pagerank", nil)
	if err != nil {
		t.Fatal(err)
	}
	if global["pagerank_iters"] <= 0 {
		t.Fatal("no iterations reported")
	}
	// Write-back landed in persistent properties for extracted vertices.
	col, ok := f.Properties().NumericColumn("pagerank")
	if !ok {
		t.Fatal("pagerank column missing")
	}
	nonzero := 0
	for _, v := range ex.Vertices {
		if col[v] > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("write-back wrote nothing")
	}
	st := f.Stats()
	if st.Analytic.Invocations != 1 || st.WriteBack.Items == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunAnalyticUnknown(t *testing.T) {
	f := builtFlow(t)
	ex := f.Extract([]int32{0}, 1, nil)
	if _, _, err := f.RunAnalytic("nope", ex); err == nil {
		t.Fatal("unknown analytic should error")
	}
}

func TestStreamingTriggersAnalytic(t *testing.T) {
	f := New(graph.FromEdges(64, false, nil))
	f.RegisterAnalytic("triangles", TriangleAnalytic)
	f.StreamAnalytic = "triangles"
	f.ExtractDepth = 1
	f.Engine().AddTrigger(streaming.NewDegreeThresholdTrigger(4))
	var updates []dyngraph.Edit
	for w := int32(1); w <= 6; w++ {
		updates = append(updates, dyngraph.Edit{Src: 0, Dst: w, Time: int64(w)})
	}
	applied, triggered, err := f.ProcessUpdates(updates)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 6 {
		t.Fatalf("applied = %d", applied)
	}
	if triggered != 1 {
		t.Fatalf("triggered = %d", triggered)
	}
	alerts := f.Alerts()
	if len(alerts) != 1 || alerts[0].Source != "degree-threshold" {
		t.Fatalf("alerts = %+v", alerts)
	}
	if alerts[0].Global == nil {
		t.Fatal("alert missing analytic globals")
	}
	st := f.Stats()
	if st.StreamIn.Invocations != 6 || st.Triggered.Invocations != 1 {
		t.Fatalf("stream stats = %+v", st)
	}
}

func TestStandardAnalytics(t *testing.T) {
	g := gen.RMAT(7, 8, gen.Graph500RMAT, 9, false)
	for name, a := range map[string]Analytic{
		"pagerank":  PageRankAnalytic,
		"triangles": TriangleAnalytic,
		"wcc":       ComponentAnalytic,
		"jaccard":   JaccardAnalytic,
	} {
		perVertex, global := a(g)
		if len(perVertex) == 0 {
			t.Fatalf("%s: no per-vertex output", name)
		}
		for col, vals := range perVertex {
			if int32(len(vals)) != g.NumVertices() {
				t.Fatalf("%s/%s: column length %d", name, col, len(vals))
			}
		}
		if global == nil {
			t.Fatalf("%s: no global output", name)
		}
	}
	// Component analytic agrees with the kernel.
	pv, glob := ComponentAnalytic(g)
	cc := kernels.WCC(g)
	if int32(glob["components"]) != cc.NumComponents {
		t.Fatal("component analytic mismatch")
	}
	for v, l := range cc.Label {
		if int32(pv["component"][v]) != l {
			t.Fatal("component labels mismatch")
		}
	}
}

func TestEndToEndCanonicalFlow(t *testing.T) {
	// The full Fig. 2 loop: batch build → batch analytic → stream updates →
	// trigger → analytic → write-back, all against one persistent graph.
	f := New(gen.RMAT(7, 4, gen.Graph500RMAT, 3, false))
	f.RegisterAnalytic("pagerank", PageRankAnalytic)
	f.RegisterAnalytic("jaccard", JaccardAnalytic)
	f.StreamAnalytic = "jaccard"
	f.Engine().AddTrigger(streaming.NewTriangleDeltaTrigger(2))

	if _, _, err := f.RunBatch(SeedCriteria{K: 4}, 2, "pagerank", nil); err != nil {
		t.Fatal(err)
	}
	updates := gen.EdgeUpdateStream(7, 400, 0.05, 21)
	_, triggered, err := f.ProcessUpdates(updates)
	if err != nil {
		t.Fatal(err)
	}
	if triggered == 0 {
		t.Fatal("no triggers fired on a dense update stream")
	}
	if _, ok := f.Properties().NumericColumn("max_jaccard"); !ok {
		t.Fatal("streaming analytic never wrote back")
	}
}

func TestSelectSeedsPPRExpand(t *testing.T) {
	f := builtFlow(t)
	base := f.SelectSeeds(SeedCriteria{K: 2})
	expanded := f.SelectSeeds(SeedCriteria{K: 2, PPRExpand: 5})
	if len(expanded) != len(base)+5 {
		t.Fatalf("expanded = %d seeds, want %d", len(expanded), len(base)+5)
	}
	// The expansion must not duplicate the original seeds.
	seen := map[int32]bool{}
	for _, s := range expanded {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	// Expanded vertices should be near the seeds: within 2 hops.
	snap := f.Graph().Snapshot()
	hood := map[int32]bool{}
	for _, v := range kernels.KHopNeighborhood(snap, base, 3) {
		hood[v] = true
	}
	for _, s := range expanded {
		if !hood[s] {
			t.Fatalf("expansion vertex %d far from seeds", s)
		}
	}
}

func TestDirectedFlowExtract(t *testing.T) {
	// 2->0 closes a cycle, not reachable forward past depth.
	f := New(graph.FromEdges(16, true, [][2]int32{{0, 1}, {1, 2}, {2, 0}}))
	ex := f.Extract([]int32{0}, 2, nil)
	if !ex.Sub.Directed() {
		t.Fatal("directed flow produced undirected extraction")
	}
	if ex.Sub.NumVertices() != 3 {
		t.Fatalf("extracted %d vertices", ex.Sub.NumVertices())
	}
	// Local arcs follow direction.
	if !ex.Sub.HasEdge(0, 1) || ex.Sub.HasEdge(1, 0) {
		t.Fatal("directed arcs wrong in extraction")
	}
}
