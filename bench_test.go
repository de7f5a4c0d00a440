// Benchmarks regenerating every table and figure of the paper (see the
// per-experiment index in DESIGN.md). Run with:
//
//	go test -bench=. -benchmem
//
// E1  BenchmarkFig1_*        batch kernels of the Fig. 1 taxonomy
// E9  BenchmarkFig1Anomaly*  the three Firehose-style streaming kernels
// E2  BenchmarkFig2*         the canonical flow, batch and streaming sides
// E3  BenchmarkFig3NORAModel the analytical model across configs
// E4  BenchmarkFig4SpGEMM*   accelerator sim vs real Go CPU baselines
// E5  BenchmarkFig5*         migrating threads vs conventional access
// E6  BenchmarkFig6SizePerf  the size-performance scatter
// E7  BenchmarkFig7*         streaming Jaccard queries on the Emu sim
// E17 BenchmarkFromEdgesRMAT, BenchmarkDynSnapshot  sort-free CSR construction
// E18 BenchmarkDynSnapshotDeltaChain  copy-on-write snapshot chain, per version bump
// --  BenchmarkNORA*         the measured nine-step boil + query path
// --  BenchmarkAblation*     design-choice ablations from DESIGN.md
package repro

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graph500"
	"repro/internal/kernels"
	"repro/internal/lamachine"
	"repro/internal/matrix"
	"repro/internal/nora"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/streaming"
)

const benchScale = 13 // 8192 vertices, ~2^17 edges for kernel benches

var benchG *graph.Graph

func getBenchGraph() *graph.Graph {
	if benchG == nil {
		benchG = gen.RMAT(benchScale, 16, gen.Graph500RMAT, 42, false)
	}
	return benchG
}

// ---- E1: Fig. 1 batch kernels ----

func BenchmarkFig1_BFS(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.BFSParallel(g, int32(i)%g.NumVertices())
	}
	edges := float64(g.NumEdges())
	b.ReportMetric(edges*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
}

func BenchmarkFig1_SSSP(b *testing.B) {
	g := gen.RMATWeighted(benchScale, 16, gen.Graph500RMAT, 42, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.DeltaStepping(g, int32(i)%g.NumVertices(), 0.1)
	}
}

func BenchmarkFig1_PageRank(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.PageRank(g, kernels.DefaultPageRankOptions())
	}
}

func BenchmarkFig1_WCC(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.WCC(g)
	}
}

func BenchmarkFig1_SCC(b *testing.B) {
	g := gen.RMAT(benchScale, 16, gen.Graph500RMAT, 42, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.SCC(g)
	}
}

func BenchmarkFig1_TriangleCount(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.GlobalTriangleCount(g)
	}
}

func BenchmarkFig1_TriangleList(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.TriangleList(g)
	}
}

func BenchmarkFig1_ClusteringCoeff(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.ClusteringCoefficients(g)
	}
}

func BenchmarkFig1_BetweennessApprox(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.ApproxBetweenness(g, 32, int64(i))
	}
}

func BenchmarkFig1_CommunityDetection(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.LabelPropagation(g, 10, int64(i))
	}
}

func BenchmarkFig1_GraphContraction(b *testing.B) {
	g := getBenchGraph()
	cd := kernels.LabelPropagation(g, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Contract(g, cd.Label)
	}
}

func BenchmarkFig1_GraphPartition(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Partition(g, 8, 4)
	}
}

func BenchmarkFig1_MISLuby(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.MISLuby(g, int64(i))
	}
}

func BenchmarkFig1_JaccardAll(b *testing.B) {
	g := gen.RMAT(11, 8, gen.Graph500RMAT, 42, false) // wedge-quadratic: smaller input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.JaccardAll(g, 2, 0.1, 1000)
	}
}

func BenchmarkFig1_SubgraphIso4Cycle(b *testing.B) {
	g := gen.RMAT(9, 8, gen.Graph500RMAT, 42, false)
	pattern := graph.FromEdges(4, false, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.SubgraphIsomorphism(pattern, g, 10000)
	}
}

func BenchmarkFig1_APSPSubgraph(b *testing.B) {
	g := getBenchGraph()
	region := kernels.KHopNeighborhood(g, []int32{0}, 1)
	if len(region) > 400 {
		region = region[:400]
	}
	sub, _ := graph.InducedSubgraph(g, region)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.APSP(sub)
	}
}

// ---- E9: Fig. 1 streaming anomaly kernels ----

func anomalyStream(n int) []gen.StreamItem {
	return gen.NewBiasedKeyStream(1<<18, 0.02, 0.5, 7).Generate(n)
}

func BenchmarkFig1AnomalyFixedKey(b *testing.B) {
	items := anomalyStream(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := streaming.NewFixedKeyAnomaly(17)
		for _, it := range items {
			det.Ingest(it)
		}
	}
	b.ReportMetric(float64(len(items)*b.N)/b.Elapsed().Seconds()/1e6, "Mitems/s")
}

func BenchmarkFig1AnomalyUnboundedKey(b *testing.B) {
	items := anomalyStream(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := streaming.NewUnboundedKeyAnomaly()
		for _, it := range items {
			det.Ingest(it)
		}
	}
	b.ReportMetric(float64(len(items)*b.N)/b.Elapsed().Seconds()/1e6, "Mitems/s")
}

func BenchmarkFig1AnomalyTwoLevel(b *testing.B) {
	s := gen.NewTwoLevelStream(1<<18, 1<<10, 0.02, 0.5, 7)
	items := make([]gen.StreamItem, 200000)
	for i := range items {
		items[i] = s.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := streaming.NewTwoLevelAnomaly(s.OuterKey)
		for _, it := range items {
			det.Ingest(it)
		}
	}
	b.ReportMetric(float64(len(items)*b.N)/b.Elapsed().Seconds()/1e6, "Mitems/s")
}

// ---- E2: Fig. 2 canonical flow ----

func flowEdges(scale int) [][2]int32 {
	g := gen.RMAT(scale, 8, gen.Graph500RMAT, 1, false)
	var edges [][2]int32
	for v := int32(0); v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(v) {
			if w > v {
				edges = append(edges, [2]int32{v, w})
			}
		}
	}
	return edges
}

func BenchmarkFig2BatchPath(b *testing.B) {
	edges := flowEdges(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flow.New(1<<12, false)
		f.RegisterAnalytic("pagerank", flow.PageRankAnalytic)
		f.BuildFromEdges(edges)
		if _, _, err := f.RunBatch(flow.SeedCriteria{K: 8}, 2, "pagerank", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2StreamingPath(b *testing.B) {
	updates := gen.EdgeUpdateStream(12, 20000, 0.05, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := flow.New(1<<12, false)
		f.ExtractDepth = 1
		f.RegisterAnalytic("triangles", flow.TriangleAnalytic)
		f.StreamAnalytic = "triangles"
		f.Engine().AddTrigger(streaming.NewDegreeThresholdTrigger(64))
		if _, _, err := f.ProcessUpdates(updates); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(20000*float64(b.N)/b.Elapsed().Seconds()/1e3, "Kupdates/s")
}

// ---- E3 / E6 / E8: the analytical model ----

func BenchmarkFig3NORAModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range perfmodel.Fig3Configs {
			perfmodel.EvaluateNORA(cfg)
		}
	}
}

func BenchmarkFig6SizePerf(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := perfmodel.Fig6()
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// ---- E4: Fig. 4 SpGEMM — accelerator sim vs real CPU baselines ----

func spgemmInput() *matrix.CSR {
	g := gen.RMAT(12, 8, gen.Graph500RMAT, 7, true)
	return matrix.AdjacencyMatrix(g)
}

func BenchmarkFig4SpGEMMCPUGustavson(b *testing.B) {
	a := spgemmInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.SpGEMMGustavson(matrix.PlusTimes, a, a)
	}
}

func BenchmarkFig4SpGEMMCPUHeapMerge(b *testing.B) {
	a := spgemmInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matrix.SpGEMMHeapMerge(matrix.PlusTimes, a, a)
	}
}

func BenchmarkFig4SpGEMMAcceleratorSim(b *testing.B) {
	a := spgemmInput()
	b.ResetTimer()
	var simSecs float64
	for i := 0; i < b.N; i++ {
		_, res := lamachine.SimulateNode(lamachine.FPGANode, a, a)
		simSecs = res.Seconds
	}
	b.ReportMetric(simSecs*1e3, "simulated-ms")
}

func BenchmarkFig4SpGEMM8NodeSystem(b *testing.B) {
	a := spgemmInput()
	b.ResetTimer()
	var simSecs float64
	for i := 0; i < b.N; i++ {
		res := lamachine.SimulateSystem(lamachine.FPGANode, 8, a, a)
		simSecs = res.Seconds
	}
	b.ReportMetric(simSecs*1e3, "simulated-ms")
}

// ---- E5: Fig. 5 migrating threads vs conventional ----

func BenchmarkFig5PointerChaseMigrating(b *testing.B) {
	b.ReportAllocs()
	var st emu.WorkloadStats
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(emu.Emu1Config(), 1<<20)
		st = emu.PointerChase(m, emu.Migrating, 256, 256, 42)
	}
	b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
	b.ReportMetric(float64(st.TrafficBytes)/1e6, "traffic-MB")
}

func BenchmarkFig5PointerChaseConventional(b *testing.B) {
	var st emu.WorkloadStats
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(emu.Emu1Config(), 1<<20)
		st = emu.PointerChase(m, emu.Conventional, 256, 256, 42)
	}
	b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
	b.ReportMetric(float64(st.TrafficBytes)/1e6, "traffic-MB")
}

func BenchmarkFig5RandomUpdateMigrating(b *testing.B) {
	var st emu.WorkloadStats
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(emu.Emu1Config(), 1<<20)
		st = emu.RandomUpdate(m, emu.Migrating, 512, 256, 42)
	}
	b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
}

func BenchmarkFig5RandomUpdateConventional(b *testing.B) {
	var st emu.WorkloadStats
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(emu.Emu1Config(), 1<<20)
		st = emu.RandomUpdate(m, emu.Conventional, 512, 256, 42)
	}
	b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
}

func BenchmarkFig5BFSMigrating(b *testing.B) {
	g := gen.RMAT(11, 8, gen.Graph500RMAT, 5, false)
	var st emu.WorkloadStats
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(emu.Emu1Config(), emu.WordsForGraph(g))
		lay := emu.LoadGraph(m, g)
		st = emu.BFSVisit(m, lay, emu.Migrating, 0)
	}
	b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
}

// ---- E7: streaming Jaccard on the Emu simulator ----

func benchJaccardQueries(b *testing.B, cfg emu.Config, model emu.ExecModel) {
	g := gen.RMAT(11, 8, gen.Graph500RMAT, 11, false)
	queries := gen.QueryStream(64, g.NumVertices(), 3)
	var st emu.WorkloadStats
	var results []emu.JaccardQueryResult
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(cfg, emu.WordsForGraph(g))
		lay := emu.LoadGraph(m, g)
		results, st = emu.JaccardQueries(m, lay, model, queries)
	}
	var mean float64
	for _, r := range results {
		mean += r.LatencyNs
	}
	mean /= float64(len(results))
	b.ReportMetric(mean/1e3, "query-us")
	b.ReportMetric(float64(len(queries))/(st.MakespanNs/1e9), "queries/s")
}

func BenchmarkFig7JaccardEmu1Migrating(b *testing.B) {
	benchJaccardQueries(b, emu.Emu1Config(), emu.Migrating)
}

func BenchmarkFig7JaccardEmu1Conventional(b *testing.B) {
	benchJaccardQueries(b, emu.Emu1Config(), emu.Conventional)
}

func BenchmarkFig7JaccardEmu3Migrating(b *testing.B) {
	benchJaccardQueries(b, emu.Emu3Config(), emu.Migrating)
}

// ---- NORA: the measured nine-step pipeline and query path ----

func BenchmarkNORABoil(b *testing.B) {
	p := gen.DefaultNORAParams()
	p.NumPeople = 5000
	p.NumAddresses = 2000
	records := gen.GenerateNORARecords(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nora.Boil(records, p.NumAddresses, 2)
	}
}

func BenchmarkNORAQuery(b *testing.B) {
	p := gen.DefaultNORAParams()
	p.NumPeople = 5000
	p.NumAddresses = 2000
	records := gen.GenerateNORARecords(p)
	res := nora.Boil(records, p.NumAddresses, 2)
	queries := gen.QueryStream(1024, res.NumEntities, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nora.Query(res, queries[i%len(queries)], 2)
	}
}

// ---- Ablations (design choices called out in DESIGN.md) ----

func BenchmarkAblationDelta(b *testing.B) {
	g := gen.RMATWeighted(12, 8, gen.Graph500RMAT, 3, false)
	for _, delta := range []float64{0.01, 0.05, 0.25, 1.0} {
		b.Run(fmt.Sprintf("delta=%g", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.DeltaStepping(g, 0, delta)
			}
		})
	}
	b.Run("dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.Dijkstra(g, 0)
		}
	})
}

func BenchmarkAblationSpGEMM(b *testing.B) {
	for _, scale := range []int{9, 11} {
		g := gen.RMAT(scale, 8, gen.Graph500RMAT, 7, true)
		a := matrix.AdjacencyMatrix(g)
		b.Run(fmt.Sprintf("gustavson/scale=%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.SpGEMMGustavson(matrix.PlusTimes, a, a)
			}
		})
		b.Run(fmt.Sprintf("heapmerge/scale=%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.SpGEMMHeapMerge(matrix.PlusTimes, a, a)
			}
		})
	}
}

func BenchmarkAblationEmuRemoteOps(b *testing.B) {
	// Remote-op offload vs migrating to do the same atomic update.
	b.Run("remote-op", func(b *testing.B) {
		var st emu.WorkloadStats
		for i := 0; i < b.N; i++ {
			m := emu.NewMachine(emu.Emu1Config(), 1<<20)
			st = emu.RandomUpdate(m, emu.Migrating, 512, 128, 3)
		}
		b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
	})
	b.Run("migrate-per-update", func(b *testing.B) {
		var worst float64
		for i := 0; i < b.N; i++ {
			m := emu.NewMachine(emu.Emu1Config(), 1<<20)
			// Same random updates, but via AtomicAdd: the thread migrates to
			// every target instead of firing a single-shot remote op.
			threads := make([]*emu.Thread, 512)
			x := uint64(12345)
			for t := range threads {
				threads[t] = m.NewThread(emu.Migrating, t%m.TotalNodelets())
				for k := 0; k < 128; k++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					threads[t].AtomicAdd(int64(x%(1<<20)), 1)
				}
			}
			worst = m.Makespan(threads)
		}
		b.ReportMetric(worst/1e3, "simulated-us")
	})
}

func BenchmarkAblationDynBlock(b *testing.B) {
	updates := gen.EdgeUpdateStream(13, 100000, 0.1, 5)
	for _, bs := range []int{2, 8, 16, 64} {
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := dyngraph.NewWithBlockSize(1<<13, false, bs)
				for _, u := range updates {
					if u.Delete {
						g.DeleteEdge(u.Src, u.Dst)
					} else {
						g.InsertEdge(u.Src, u.Dst, 1, u.Time)
					}
				}
			}
			b.ReportMetric(float64(len(updates)*b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
		})
	}
}

func BenchmarkAblationJaccard(b *testing.B) {
	g := gen.RMAT(10, 8, gen.Graph500RMAT, 13, false)
	b.Run("all-pairs-wedge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.JaccardAll(g, 2, 0, 0)
		}
	})
	b.Run("per-vertex-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.JaccardFromVertex(g, int32(i)%g.NumVertices(), 0)
		}
	})
}

// ---- Dynamic graph vs rebuild (streaming justification) ----

func BenchmarkStreamTriangleIncremental(b *testing.B) {
	updates := gen.EdgeUpdateStream(12, 20000, 0.1, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dyngraph.New(1<<12, false)
		tc := streaming.NewTriangleCounter(g)
		for _, u := range updates {
			tc.Apply(u)
		}
	}
	b.ReportMetric(20000*float64(b.N)/b.Elapsed().Seconds()/1e3, "Kupdates/s")
}

func BenchmarkStreamTriangleRecountEvery1000(b *testing.B) {
	// The batch alternative: rebuild and recount every 1000 updates.
	updates := gen.EdgeUpdateStream(12, 20000, 0.1, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dyngraph.New(1<<12, false)
		for j, u := range updates {
			if u.Delete {
				g.DeleteEdge(u.Src, u.Dst)
			} else {
				g.InsertEdge(u.Src, u.Dst, 1, u.Time)
			}
			if j%1000 == 999 {
				kernels.GlobalTriangleCount(g.Snapshot())
			}
		}
	}
	b.ReportMetric(20000*float64(b.N)/b.Elapsed().Seconds()/1e3, "Kupdates/s")
}

// ---- Composed multi-kernel benchmark (the paper's proposed next step) ----

func BenchmarkComposedFlow(b *testing.B) {
	cb := flow.ComposedBenchmark{Scale: 10, Updates: 5000, TriggerDelta: 40, Seed: 3}
	for i := 0; i < b.N; i++ {
		if _, err := cb.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Additional kernels (intro-level: spanning forest, diameter) ----

func BenchmarkKernelMSTKruskal(b *testing.B) {
	g := gen.RMATWeighted(benchScale, 16, gen.Graph500RMAT, 42, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.MSTKruskal(g)
	}
}

func BenchmarkKernelDoubleSweepDiameter(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.DoubleSweepDiameter(g, int32(i)%g.NumVertices())
	}
}

func BenchmarkKernelTemporalCorrelation(b *testing.B) {
	// Timestamped R-MAT with arc-order times.
	base := gen.RMAT(10, 8, gen.Graph500RMAT, 5, false)
	tb := graph.NewBuilder(base.NumVertices()).Timestamped()
	var tstamp int64
	for v := int32(0); v < base.NumVertices(); v++ {
		for _, w := range base.Neighbors(v) {
			if w > v {
				tb.AddEdge(graph.Edge{Src: v, Dst: w, Time: tstamp})
				tb.AddEdge(graph.Edge{Src: w, Dst: v, Time: tstamp})
				tstamp++
			}
		}
	}
	g := tb.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.TemporallyCorrelated(g, 128, 2, 0.25)
	}
}

func BenchmarkStreamSlidingWindow(b *testing.B) {
	updates := gen.EdgeUpdateStream(12, 50000, 0, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := streaming.NewSlidingWindowGraph(1<<12, false, 5000)
		for _, u := range updates {
			w.Apply(u)
		}
	}
	b.ReportMetric(50000*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
}

// ---- Fig. 4 extension: BFS on the accelerator ----

func BenchmarkFig4BFSAcceleratorSim(b *testing.B) {
	g := gen.RMAT(12, 8, gen.Graph500RMAT, 7, false)
	at := matrix.AdjacencyMatrix(g).Transpose()
	b.ResetTimer()
	var sim float64
	for i := 0; i < b.N; i++ {
		res := lamachine.SimulateBFS(lamachine.FPGANode, at, 0)
		sim = res.Seconds
	}
	b.ReportMetric(sim*1e6, "simulated-us")
}

// ---- Model exploration (the "early parameterized model" proposal) ----

func BenchmarkModelSensitivity(b *testing.B) {
	factors := []float64{0.5, 1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		for _, cfg := range perfmodel.Fig6Configs {
			perfmodel.Sensitivity(cfg, factors)
		}
	}
}

// ---- Parallel WCC variant & batch update throughput ----

func BenchmarkKernelWCCParallel(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.WCCParallel(g)
	}
}

func BenchmarkKernelWCCSerial(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.WCC(g)
	}
}

func BenchmarkKernelKCore(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.KCore(g)
	}
}

func BenchmarkDynBatchApply(b *testing.B) {
	edits := dynEdits(gen.EdgeUpdateStream(13, 100000, 0.1, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := dyngraph.New(1<<13, false)
		g.ApplyEdits(edits)
	}
	b.ReportMetric(float64(100000*b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
}

// dynEdits converts a generated update stream to the edits graphd's
// writer applies.
func dynEdits(ups []gen.EdgeUpdate) []dyngraph.Edit {
	edits := make([]dyngraph.Edit, len(ups))
	for i, u := range ups {
		edits[i] = dyngraph.Edit{Src: u.Src, Dst: u.Dst, Time: u.Time, Delete: u.Delete}
	}
	return edits
}

// buildSink keeps the construction benchmarks' results alive.
var buildSink *graph.Graph

// BenchmarkFromEdgesRMAT is graph construction from a raw R-MAT edge list,
// the first step of Fig. 2's flow and of the repo benchmark's set-up.
func BenchmarkFromEdgesRMAT(b *testing.B) {
	for _, scale := range []int{12, 15} {
		edges := gen.RMATEdgeStream(scale, 16<<scale, gen.Graph500RMAT, 1)
		b.Run(fmt.Sprintf("s%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildSink = graph.FromEdges(1<<scale, false, edges)
			}
			b.ReportMetric(float64(len(edges)*b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
		})
	}
}

// BenchmarkDynSnapshot is the full CSR emission a freshly bulk-loaded
// graphd or shard pays on its first query.
func BenchmarkDynSnapshot(b *testing.B) {
	dg := dyngraph.FromCSRGraph(gen.RMAT(14, 16, gen.Graph500RMAT, 1, false))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = dg.Snapshot()
	}
	b.ReportMetric(float64(dg.NumArcs()*int64(b.N))/b.Elapsed().Seconds()/1e6, "Marcs/s")
}

// BenchmarkDynSnapshotDeltaChain is the version bump graphd pays per ingest
// batch: 200 R-MAT edits, a quarter deletes, then a snapshot patched from the
// one before. Most iterations append the touched rows to the chain's arena;
// about one in live-arcs/touched-arcs re-emits every row into a fresh one.
func BenchmarkDynSnapshotDeltaChain(b *testing.B) {
	const scale, perBatch = 14, 200
	dg := dyngraph.FromCSRGraph(gen.RMAT(scale, 16, gen.Graph500RMAT, 1, false))
	updates := dynEdits(gen.EdgeUpdateStream(scale, b.N*perBatch, 0.25, 2))
	snap := dg.Snapshot()
	var touchedArcs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := updates[i*perBatch : (i+1)*perBatch]
		dg.ApplyEdits(batch)
		touched := make([]int32, 0, 2*perBatch)
		for _, u := range batch {
			touched = append(touched, u.Src, u.Dst)
		}
		slices.Sort(touched)
		touched = slices.Compact(touched)
		b.StartTimer()
		snap = dg.SnapshotDelta(snap, touched)
		for _, v := range touched {
			touchedArcs += int64(snap.Degree(v))
		}
	}
	buildSink = snap
	b.ReportMetric(float64(touchedArcs)/float64(b.N), "touched-arcs/op")
}

// ---- Graph500 harness (E1 depth) ----

func BenchmarkGraph500BFSPhase(b *testing.B) {
	spec := graph500.Spec{Scale: 12, EdgeFactor: 16, Iterations: 4, Seed: 3}
	for i := 0; i < b.N; i++ {
		res, err := graph500.RunBFS(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Stats().HarmonicMean/1e6, "hmean-MTEPS")
		}
	}
}

// ---- Emu mixed streaming (combined mode) ----

func BenchmarkFig5MixedStreamMigrating(b *testing.B) {
	g := gen.RMAT(10, 8, gen.Graph500RMAT, 21, false)
	var st emu.MixedStreamStats
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(emu.Emu1Config(), emu.WordsForGraphWithProperties(g))
		lay := emu.LoadGraphWithProperties(m, g)
		st = emu.MixedStream(m, lay, emu.Migrating, 5000, 200, 7)
	}
	b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
}

func BenchmarkFig5MixedStreamConventional(b *testing.B) {
	g := gen.RMAT(10, 8, gen.Graph500RMAT, 21, false)
	var st emu.MixedStreamStats
	for i := 0; i < b.N; i++ {
		m := emu.NewMachine(emu.Emu1Config(), emu.WordsForGraphWithProperties(g))
		lay := emu.LoadGraphWithProperties(m, g)
		st = emu.MixedStream(m, lay, emu.Conventional, 5000, 200, 7)
	}
	b.ReportMetric(st.MakespanNs/1e3, "simulated-us")
}

// ---- Model calibration round trip ----

func BenchmarkModelCalibration(b *testing.B) {
	p := gen.DefaultNORAParams()
	p.NumPeople = 3000
	p.NumAddresses = 1200
	records := gen.GenerateNORARecords(p)
	res := nora.Boil(records, p.NumAddresses, 2)
	measured := make([]perfmodel.MeasuredStep, 0, len(res.Steps))
	for _, st := range res.Steps {
		measured = append(measured, perfmodel.MeasuredStep{Name: st.Name, Elapsed: st.Elapsed})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfmodel.Calibrate(perfmodel.Base2012, measured)
	}
}

// ---- Locality ablation: vertex ordering vs BFS speed ----

func BenchmarkAblationOrdering(b *testing.B) {
	g := getBenchGraph()
	degOrdered := graph.Relabel(g, graph.DegreeOrderPermutation(g))
	bfsOrdered := graph.Relabel(g, graph.BFSOrderPermutation(g, 0))
	for name, gg := range map[string]*graph.Graph{
		"original": g, "degree-ordered": degOrdered, "bfs-ordered": bfsOrdered,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.PageRank(gg, kernels.DefaultPageRankOptions())
			}
		})
	}
}

func BenchmarkAblationSpGEMMParallel(b *testing.B) {
	g := gen.RMAT(12, 8, gen.Graph500RMAT, 7, true)
	a := matrix.AdjacencyMatrix(g)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.SpGEMMGustavson(matrix.PlusTimes, a, a)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.SpGEMMParallel(matrix.PlusTimes, a, a)
		}
	})
}

// ---- PPR and heavy hitters ----

func BenchmarkKernelPersonalizedPageRank(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.PersonalizedPageRank(g, []int32{int32(i) % g.NumVertices()}, 0.85, 1e-7)
	}
}

func BenchmarkStreamHeavyHitters(b *testing.B) {
	items := anomalyStream(200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh := streaming.NewHeavyHitters(256)
		for _, it := range items {
			hh.Ingest(it.Key)
		}
	}
	b.ReportMetric(float64(len(items)*b.N)/b.Elapsed().Seconds()/1e6, "Mitems/s")
}

func BenchmarkKernelLouvain(b *testing.B) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Louvain(g, 4, 8)
	}
}

// ---- Worker-count scaling of the par scheduler ----
//
// Each benchmark pins the par default worker count and runs a parallel
// kernel at 1/2/4/8 workers on the same graph, so `go test -bench=ParScaling`
// prints a per-worker-count scaling table. Because every kernel is
// deterministic in the worker count, the work done per iteration is
// identical across sub-benchmarks — only the scheduling changes.

func benchWithWorkers(b *testing.B, body func(b *testing.B)) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := par.DefaultWorkers()
			par.SetDefaultWorkers(w)
			defer par.SetDefaultWorkers(prev)
			body(b)
		})
	}
}

func BenchmarkParScalingBFS(b *testing.B) {
	g := getBenchGraph()
	benchWithWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.BFSParallel(g, int32(i)%g.NumVertices())
		}
		b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MTEPS")
	})
}

func BenchmarkParScalingPageRank(b *testing.B) {
	g := getBenchGraph()
	opt := kernels.DefaultPageRankOptions()
	opt.MaxIters = 20
	benchWithWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.PageRank(g, opt)
		}
	})
}

func BenchmarkParScalingTriangles(b *testing.B) {
	g := getBenchGraph()
	benchWithWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.GlobalTriangleCount(g)
		}
	})
}

func BenchmarkParScalingSSSP(b *testing.B) {
	g := gen.RMATWeighted(benchScale, 16, gen.Graph500RMAT, 42, false)
	benchWithWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.DeltaSteppingParallel(g, int32(i)%g.NumVertices(), 0.25)
		}
	})
}

func BenchmarkParScalingKCore(b *testing.B) {
	g := getBenchGraph()
	benchWithWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.KCoreParallel(g)
		}
	})
}

func BenchmarkParScalingSpGEMM(b *testing.B) {
	a := matrix.AdjacencyMatrix(getBenchGraph())
	benchWithWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matrix.SpGEMMParallel(matrix.PlusTimes, a, a)
		}
	})
}
