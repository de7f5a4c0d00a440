package obsv

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/streaming"
	"repro/internal/telemetry"
)

// MatrixSpec describes the benchmark matrix: every kernel below runs
// against R-MAT and Erdős–Rényi graphs at each scale, plus the streaming
// Jaccard case over an edge-update stream and one fixed-size graph
// construction case (build/rmat-s15).
type MatrixSpec struct {
	Scales        []int
	EdgeFactor    int
	Seed          int64
	Reps          int      // timed repetitions per case; min wall wins
	StreamUpdates int      // updates for the streaming Jaccard case
	Kernels       []string // restrict to these kernel names; nil = all
}

// DefaultMatrixSpec is the committed-baseline matrix.
func DefaultMatrixSpec() MatrixSpec {
	return MatrixSpec{
		Scales: []int{10, 12}, EdgeFactor: 8, Seed: 42, Reps: 5,
		StreamUpdates: 2000,
	}
}

// QuickMatrixSpec is a CI-sized matrix (seconds, not minutes).
func QuickMatrixSpec() MatrixSpec {
	return MatrixSpec{
		Scales: []int{8, 10}, EdgeFactor: 8, Seed: 42, Reps: 3,
		StreamUpdates: 500,
	}
}

// benchKernel is one row of the matrix: run executes the kernel against g
// and returns the work-item count its TEPS figure is normalized by.
type benchKernel struct {
	name string
	run  func(g *graph.Graph) int64
}

// benchKernels is the fixed kernel set of the matrix: the parallel batch
// kernels, linear-algebra SpGEMM, and PageRank as the iterative
// representative. Names are stable identities — renaming one orphans its
// baseline trajectory.
var benchKernels = []benchKernel{
	{"bfs", func(g *graph.Graph) int64 {
		kernels.BFSParallel(g, 0)
		return g.NumEdges()
	}},
	{"sssp-delta", func(g *graph.Graph) int64 {
		kernels.DeltaSteppingParallel(g, 0, 1)
		return g.NumEdges()
	}},
	{"wcc", func(g *graph.Graph) int64 {
		kernels.WCCParallel(g)
		return g.NumEdges()
	}},
	{"kcore", func(g *graph.Graph) int64 {
		kernels.KCoreParallel(g)
		return g.NumEdges()
	}},
	{"pagerank", func(g *graph.Graph) int64 {
		_, iters := kernels.PageRank(g, kernels.DefaultPageRankOptions())
		return g.NumEdges() * int64(iters)
	}},
	{"triangles", func(g *graph.Graph) int64 {
		kernels.GlobalTriangleCount(g)
		return g.NumEdges()
	}},
	{"jaccard-topk", func(g *graph.Graph) int64 {
		kernels.JaccardAllParallel(g, 2, 0.2, 100)
		return g.NumEdges()
	}},
	{"spgemm", func(g *graph.Graph) int64 {
		a := matrix.AdjacencyMatrix(g)
		flops := matrix.MulFlops(a, a)
		matrix.SpGEMMParallel(matrix.PlusTimes, a, a)
		return flops
	}},
}

// MatrixKernels lists every name MatrixSpec.Kernels may hold: the batch
// kernels, then the streaming Jaccard and graph construction cases.
func MatrixKernels() []string {
	names := make([]string, 0, len(benchKernels)+2)
	for _, bk := range benchKernels {
		names = append(names, bk.name)
	}
	return append(names, "jaccard-stream", "build")
}

func kernelEnabled(spec MatrixSpec, name string) bool {
	return len(spec.Kernels) == 0 || slices.Contains(spec.Kernels, name)
}

// RunMatrix executes the benchmark matrix, reporting each case's account
// into reg (span per case, obsv_account_* gauges) and returning the cases
// for a BenchFile. Graphs are generated once per (family, scale) and
// shared across kernels; each case's ns/op is the minimum over spec.Reps.
func RunMatrix(reg *telemetry.Registry, spec MatrixSpec) []BenchCase {
	if spec.Reps < 1 {
		spec.Reps = 1
	}
	var cases []BenchCase
	for _, scale := range spec.Scales {
		for _, family := range []string{"rmat", "er"} {
			gname := fmt.Sprintf("%s-s%d-ef%d", family, scale, spec.EdgeFactor)
			var g *graph.Graph
			switch family {
			case "rmat":
				g = gen.RMAT(scale, spec.EdgeFactor, gen.Graph500RMAT, spec.Seed, false)
			case "er":
				g = gen.ErdosRenyi(1<<scale, (1<<scale)*spec.EdgeFactor/2, spec.Seed, false)
			}
			for _, bk := range benchKernels {
				if !kernelEnabled(spec, bk.name) {
					continue
				}
				cases = append(cases, runCase(reg, bk.name, gname, spec.Reps, func() int64 {
					return bk.run(g)
				}))
			}
		}
		// Streaming Jaccard: per-update maintenance over a dynamic graph —
		// the paper's near-quadratic streaming caveat, kept in the
		// trajectory so its cost regression-checks like the batch kernels.
		if kernelEnabled(spec, "jaccard-stream") {
			ups := gen.EdgeUpdateStream(scale, spec.StreamUpdates, 0.1, spec.Seed)
			gname := fmt.Sprintf("stream-s%d-u%d", scale, spec.StreamUpdates)
			cases = append(cases, runCase(reg, "jaccard-stream", gname, spec.Reps, func() int64 {
				dg := dyngraph.New(1<<scale, false)
				sj := streaming.NewStreamingJaccard(dg)
				for _, u := range ups {
					sj.ApplyUpdate(u)
				}
				return int64(len(ups))
			}))
		}
	}
	// Graph construction from a raw edge list, at the size the repo
	// benchmark's batch-kernels workload builds in set-up whatever
	// spec.Scales says: one fixed trajectory row for graph.Builder.
	if kernelEnabled(spec, "build") {
		edges := gen.RMATEdgeStream(15, 16<<15, gen.Graph500RMAT, spec.Seed)
		cases = append(cases, runCase(reg, "build", "rmat-s15", spec.Reps, func() int64 {
			return graph.FromEdges(1<<15, false, edges).NumEdges()
		}))
	}
	return cases
}

// runCase times fn spec.Reps times and returns the case built from the
// fastest repetition.
func runCase(reg *telemetry.Registry, kernel, gname string, reps int, fn func() int64) BenchCase {
	caseName := kernel + "/" + gname
	sp := reg.Tracer().Start("obsv.benchcase",
		telemetry.L("kernel", kernel), telemetry.L("graph", gname))
	defer sp.End()
	var best Account
	for rep := 0; rep < reps; rep++ {
		// Flush garbage from the previous case/rep so its collection cost
		// isn't billed to this one.
		runtime.GC()
		m := StartMeter(caseName)
		items := fn()
		acct := m.Stop(items)
		if rep == 0 || acct.Wall < best.Wall {
			best = acct
		}
	}
	for _, l := range best.SpanAttrs() {
		sp.SetAttr(l.Key, l.Value)
	}
	best.Publish(reg, telemetry.L("graph", gname))
	return BenchCase{
		Name:    caseName,
		Kernel:  kernel,
		Graph:   gname,
		Reps:    reps,
		NsPerOp: best.Wall.Nanoseconds(),
		Account: best,
		TEPS:    best.TEPS(),
	}
}
