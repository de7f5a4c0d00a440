package kernels

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The batch kernels on the shapes the repo benchmark's batch-kernels
// workload runs them on: R-MAT scale 15, edge factor 16 for the traversal
// and peeling kernels, scale 11, edge factor 8 for the all-pairs Jaccard.
// Run with -cpu 1,2: the parallel kernels follow GOMAXPROCS.

func benchBig() *graph.Graph   { return gen.RMAT(15, 16, gen.Graph500RMAT, 1, false) }
func benchSmall() *graph.Graph { return gen.RMAT(11, 8, gen.Graph500RMAT, 2, false) }

func BenchmarkKCore(b *testing.B) {
	g := benchBig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KCore(g)
	}
}

func BenchmarkKCoreParallel(b *testing.B) {
	g := benchBig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KCoreParallel(g)
	}
}

func BenchmarkBFSParallel(b *testing.B) {
	g := benchBig()
	src, _ := graph.MaxDegreeVertex(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFSParallel(g, src)
	}
}

func BenchmarkJaccardAll(b *testing.B) {
	g := benchSmall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JaccardAll(g, 2, 0.1, 100)
	}
}

func BenchmarkJaccardAllParallel(b *testing.B) {
	g := benchSmall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JaccardAllParallel(g, 2, 0.1, 100)
	}
}
