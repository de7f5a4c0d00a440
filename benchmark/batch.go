package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/par"
)

// kernelClass is one of the eight trial classes of batch-kernels.
type kernelClass int

const (
	kcBFS kernelClass = iota
	kcSSSP
	kcWCC
	kcKCore
	kcPageRank
	kcTriangles
	kcJaccardTopK
	kcSpGEMM
	numKernelClasses
)

var kernelClassNames = [numKernelClasses]string{"bfs", "sssp", "wcc", "kcore", "pagerank", "triangles", "jaccard-topk", "spgemm"}

// trialsPerCycle is how often each class runs in one cycle of the schedule.
// The counts are committed constants chosen on the reference box (README,
// "Calibration") so that every class takes about an eighth of a cycle: a 2x
// gain in any one kernel then moves ops_per_s by about 7%.
var trialsPerCycle = [numKernelClasses]int{kcBFS: 70, kcSSSP: 5, kcWCC: 26, kcKCore: 6, kcPageRank: 6, kcTriangles: 1, kcJaccardTopK: 1, kcSpGEMM: 4}

const (
	bfsSources  = 64
	ssspSources = 12
	ssspDelta   = 0.05
	// JaccardAll parameters: pairs sharing at least 2 neighbours, score at
	// least 0.1, best 100 — the NORA-style top-k the repo's registry runs.
	jacMinShared = 2
	jacThreshold = 0.1
	jacTopK      = 100
)

// batchState is the in-process system under test plus its reference results.
type batchState struct {
	g       *graph.Graph // R-MAT, unweighted
	gw      *graph.Graph // same topology, symmetric seed-derived weights
	small   *graph.Graph
	a       *matrix.CSR
	sources []int32 // BFS and SSSP sources, all in the largest component

	refDepth [][]int32
	refDist  [][]float64
	refCC    *kernels.CCResult
	refCore  *kernels.KCoreResult
	refRank  []float64
	refIters int
	refTris  int64
	refPairs []kernels.JaccardPairScore
	refC     *matrix.CSR

	cycle []kernelClass
	tr    *tracer
	// perClass collects trial latencies by class for the kernels.* metrics.
	perClass [numKernelClasses][]float64
}

// withWeights attaches a weight to every arc of g: a hash of the seed and
// the undirected edge, so both stored directions agree.
func withWeights(g *graph.Graph, seed int64) (*graph.Graph, error) {
	offsets, targets, _, _ := g.CSR()
	weights := make([]float32, len(targets))
	for v := int32(0); v < g.NumVertices(); v++ {
		for i := offsets[v]; i < offsets[v+1]; i++ {
			h := mix64(edgeKey(v, targets[i]) ^ uint64(seed))
			weights[i] = float32(h>>40+1) / float32(1<<24) // (0, 1]
		}
	}
	return graph.FromCSRArrays(g.NumVertices(), false, slices.Clone(offsets), slices.Clone(targets), weights, nil)
}

// setUpBatch is batch-kernels' set-up: CSR build from the edge lists with
// the repo's own builder, then every reference result with the sequential
// kernels (par at one worker), then one validated parallel BFS per source.
func setUpBatch(edges, smallEdges [][2]int32, n, smallN int32, seed int64, workers int) (*batchState, error) {
	st := &batchState{}
	st.g = graph.FromEdges(n, false, edges)
	st.small = graph.FromEdges(smallN, false, smallEdges)
	gw, err := withWeights(st.g, seed)
	if err != nil {
		return nil, err
	}
	st.gw = gw
	st.a = matrix.AdjacencyMatrix(st.small)

	par.SetDefaultWorkers(1)
	st.refCC = kernels.WCC(st.g)
	big := largestLabel(st.refCC)
	rng := rand.New(rand.NewSource(seed ^ 0xbf5))
	for _, v := range rng.Perm(int(n)) {
		if st.refCC.Label[v] == big {
			st.sources = append(st.sources, int32(v))
			if len(st.sources) == bfsSources {
				break
			}
		}
	}
	if len(st.sources) < ssspSources {
		return nil, fmt.Errorf("largest component has only %d vertices", len(st.sources))
	}
	for _, s := range st.sources {
		st.refDepth = append(st.refDepth, kernels.BFS(st.g, s).Depth)
	}
	for _, s := range st.sources[:ssspSources] {
		st.refDist = append(st.refDist, kernels.Dijkstra(st.gw, s).Dist)
	}
	st.refCore = kernels.KCore(st.g)
	st.refRank, st.refIters = kernels.PageRank(st.g, kernels.DefaultPageRankOptions())
	st.refTris = kernels.GlobalTriangleCount(st.g)
	st.refPairs = kernels.JaccardAll(st.small, jacMinShared, jacThreshold, jacTopK)
	st.refC = matrix.SpGEMMGustavson(matrix.PlusTimes, st.a, st.a)

	par.SetDefaultWorkers(workers)
	for _, s := range st.sources {
		if !kernels.ValidateBFSTree(st.g, kernels.BFSParallel(st.g, s)) {
			return nil, fmt.Errorf("BFSParallel from %d fails ValidateBFSTree", s)
		}
	}

	for c := kernelClass(0); c < numKernelClasses; c++ {
		for j := 0; j < trialsPerCycle[c]; j++ {
			st.cycle = append(st.cycle, c)
		}
	}
	rand.New(rand.NewSource(seed^0xc1c)).Shuffle(len(st.cycle), func(i, j int) {
		st.cycle[i], st.cycle[j] = st.cycle[j], st.cycle[i]
	})
	return st, nil
}

func largestLabel(cc *kernels.CCResult) int32 {
	sizes := map[int32]int{}
	best, bestN := int32(0), 0
	for _, l := range cc.Label {
		sizes[l]++
		if sizes[l] > bestN {
			best, bestN = l, sizes[l]
		}
	}
	return best
}

func closeTo(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.Abs(a[i]-b[i]) <= tol*math.Max(1, math.Abs(b[i]))) {
			return false
		}
	}
	return true
}

// trial is the opFunc of batch-kernels: op i runs one kernel at the par
// worker count and its check compares the result with the sequential one.
func (st *batchState) trial(_, i int) func() bool {
	class := st.cycle[i%len(st.cycle)]
	round := i / len(st.cycle)
	root := st.tr.start(int64(i)+1, 0, "trial."+kernelClassNames[class])
	call := root.child("kernel." + kernelClassNames[class])
	t0 := time.Now()
	var check func() bool
	switch class {
	case kcBFS:
		k := (i + round) % len(st.sources)
		res := kernels.BFSParallel(st.g, st.sources[k])
		check = func() bool { return slices.Equal(res.Depth, st.refDepth[k]) }
	case kcSSSP:
		k := (i + round) % ssspSources
		res := kernels.DeltaSteppingParallel(st.gw, st.sources[k], ssspDelta)
		check = func() bool { return closeTo(res.Dist, st.refDist[k], 1e-9) }
	case kcWCC:
		res := kernels.WCCParallel(st.g)
		check = func() bool {
			return res.NumComponents == st.refCC.NumComponents && slices.Equal(res.Label, st.refCC.Label)
		}
	case kcKCore:
		res := kernels.KCoreParallel(st.g)
		check = func() bool { return res.MaxCore == st.refCore.MaxCore && slices.Equal(res.Core, st.refCore.Core) }
	case kcPageRank:
		rank, iters := kernels.PageRank(st.g, kernels.DefaultPageRankOptions())
		check = func() bool { return iters == st.refIters && closeTo(rank, st.refRank, 1e-9) }
	case kcTriangles:
		n := kernels.GlobalTriangleCount(st.g)
		check = func() bool { return n == st.refTris }
	case kcJaccardTopK:
		pairs := kernels.JaccardAllParallel(st.small, jacMinShared, jacThreshold, jacTopK)
		check = func() bool { return slices.Equal(pairs, st.refPairs) }
	case kcSpGEMM:
		c := matrix.SpGEMMParallel(matrix.PlusTimes, st.a, st.a)
		check = func() bool { return c.Equal(st.refC, 0) }
	}
	lat := time.Since(t0)
	call.end()
	st.perClass[class] = append(st.perClass[class], float64(lat)/float64(time.Millisecond))
	return func() bool {
		v := root.child("verify")
		ok := check()
		v.end()
		root.end()
		return ok
	}
}

// selfCPUSeconds is the benchmark process's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func selfTotalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runBatch is the batch-kernels workload: no server, no arrival process. Its
// one closed-loop phase of whole schedule cycles feeds every metric;
// ops_per_s is the median over the cycles, which all hold the same trials.
func runBatch(cfg *runConfig) (*result, error) {
	sz := cfg.sz
	in, err := makeInputs(sz, sz.batchScale, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	smallEdges := gen.RMATEdgeStream(sz.smallScale, sz.smallEF<<sz.smallScale, gen.Graph500RMAT, cfg.seed+1)

	tSetup := time.Now()
	st, err := setUpBatch(in.edges, smallEdges, in.n, 1<<sz.smallScale, cfg.seed, cfg.conns)
	if err != nil {
		return nil, err
	}
	setup := time.Since(tSetup)

	d := driver{clk: wallClock{}, conns: 1}
	untraced := 0.0
	if cfg.tracer != nil {
		// One untraced cycle first, so the traced run can state its own overhead.
		p := d.count(0, len(st.cycle), st.trial)
		untraced = p.opsPerSec()
		st.tr = cfg.tracer
		for c := range st.perClass {
			st.perClass[c] = nil
		}
	}
	cpu0, alloc0 := selfCPUSeconds(), selfTotalAlloc()
	var ph phase
	var perCycle []float64
	for ph.elapsed < cfg.measure || ph.attempted < sz.minTimedOps {
		p := d.count(ph.attempted, len(st.cycle), st.trial)
		perCycle = append(perCycle, p.opsPerSec())
		ph.attempted += p.attempted
		ph.failed += p.failed
		ph.elapsed += p.elapsed
		ph.lat = append(ph.lat, p.lat...)
	}
	cpu1, alloc1 := selfCPUSeconds(), selfTotalAlloc()

	fmt.Printf("# set-up %.2fs, %d trials in %d cycles, %.2fs\n", setup.Seconds(), ph.attempted, len(perCycle), ph.elapsed.Seconds())
	for c := kernelClass(0); c < numKernelClasses; c++ {
		fmt.Printf("# class %-12s trials %4d  median %9.3f ms\n", kernelClassNames[c], len(st.perClass[c]), median(st.perClass[c]))
	}
	res := &result{attempted: ph.attempted, failed: ph.failed, metrics: map[string]float64{}}
	if ph.ok() == 0 {
		return res, errors.New("no trial verified")
	}
	p99v, err := p99(ph.lat, sz.minTimedOps)
	if err != nil {
		return res, err
	}
	ops := float64(ph.ok())
	res.metrics[mSetup] = setup.Seconds()
	res.metrics[mOps] = median(perCycle)
	res.metrics[mP50] = percentile(ph.lat, 0.5)
	res.metrics[mP99] = p99v
	res.metrics[mCPU] = (cpu1 - cpu0) * 1000 / ops
	res.metrics[mAllocKB] = float64(alloc1-alloc0) / 1024 / ops
	if cfg.tracer != nil {
		res.layer = map[string]float64{
			"loadgen.late_p99_us": 0, // no arrival schedule to be late for
			"loadgen.cpu_frac":    0, // the load generator is the system under test here
			"trace.overhead_frac": 1 - median(perCycle)/untraced,
		}
		if err := probeLayers(cfg, in, res.layer); err != nil {
			return res, err
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
