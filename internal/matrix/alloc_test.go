package matrix

import (
	"runtime"
	"testing"

	"repro/internal/gen"
)

// TestAllocBudgetSpGEMMRows pins the allocation budget of Gustavson SpGEMM
// row accumulation (A²) on a small fixed graph. The budget is generous
// (several × the measured steady state, which is the output CSR and one
// accumulator) so GC timing and sync.Pool eviction cannot flake it, but a
// reintroduced per-row map accumulator — thousands of allocations here —
// trips it immediately.
func TestAllocBudgetSpGEMMRows(t *testing.T) {
	g := gen.RMAT(8, 8, gen.Graph500RMAT, 42, false)
	a := AdjacencyMatrix(g)
	avg := testing.AllocsPerRun(10, func() { SpGEMMGustavson(PlusTimes, a, a) })
	t.Logf("SpGEMMGustavson allocs/run = %.1f", avg)
	if avg > 120 {
		t.Errorf("SpGEMMGustavson allocated %.1f times per run, budget 120", avg)
	}
}

// coldAllocBytes is the number of bytes f allocates when every sync.Pool is
// empty: two collections first, because a pool's contents survive one. That
// is the condition the repo benchmark's batch-kernels workload runs under —
// about one call per class between collections.
func coldAllocBytes(f func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudgetBatchKernels holds the matrix kernels of batch-kernels to
// their result plus per-worker accumulators, in bytes, on R-MAT scale 12.
func TestAllocBudgetBatchKernels(t *testing.T) {
	const workers = 2
	a := AdjacencyMatrix(gen.RMAT(12, 8, gen.Graph500RMAT, 42, false))
	ref := SpGEMMGustavson(PlusTimes, a, a)
	var c *CSR
	withWorkers(t, workers, func() {
		got := coldAllocBytes(func() { c = SpGEMMParallel(PlusTimes, a, a) })
		// The product, plus per worker one accumulator over the columns
		// (8 B value, 4 B stamp, and a touched list of 4 B per column whose
		// append growth leaves up to as much again, twice, behind), plus the
		// scheduler's bookkeeping.
		result := uint64(len(c.RowPtr))*8 + uint64(c.NNZ())*12
		budget := result + workers*32*uint64(a.Cols) + 16<<10
		t.Logf("SpGEMMParallel: %d B allocated, result %d B, budget %d B", got, result, budget)
		if got > budget {
			t.Errorf("SpGEMMParallel allocated %d B, budget %d B (result %d B)", got, budget, result)
		}
	})
	var equal bool
	if got := coldAllocBytes(func() { equal = c.Equal(ref, 0) }); got != 0 || !equal {
		t.Errorf("Equal allocated %d B (budget 0) and returned %v", got, equal)
	}
}

// The SpGEMM of batch-kernels: A·A for the adjacency matrix of R-MAT scale
// 11, edge factor 8. Run with -cpu 1,2.
func benchSquare(b *testing.B, mul func(Semiring, *CSR, *CSR) *CSR) {
	a := AdjacencyMatrix(gen.RMAT(11, 8, gen.Graph500RMAT, 2, false))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(PlusTimes, a, a)
	}
}

func BenchmarkSpGEMMGustavson(b *testing.B) { benchSquare(b, SpGEMMGustavson) }
func BenchmarkSpGEMMParallel(b *testing.B)  { benchSquare(b, SpGEMMParallel) }

func BenchmarkEqual(b *testing.B) {
	a := AdjacencyMatrix(gen.RMAT(11, 8, gen.Graph500RMAT, 2, false))
	c := SpGEMMGustavson(PlusTimes, a, a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Equal(c, 0)
	}
}
