package matrix

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/racebuild"
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
	return allocBytes(f)
}

// warmCalls is how many calls warmAllocBytes takes the minimum over. One
// warm call is not a stable measure: the schedule decides how the work
// falls to the workers, and with it how far their buffers grow.
const warmCalls = 8

// warmAllocBytes is the fewest bytes f allocates over warmCalls calls, each
// after one collection, so that what the previous call returned to a
// sync.Pool sits in the pool's victim cache: the condition of a kernel
// called again and again with a collection between calls. One call first
// primes the pools. It runs at GOMAXPROCS 1. With more processors a borrow
// cannot see what another processor holds privately, and a goroutine that
// changed processors across the collection misses the pool on every call.
func warmAllocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	best := uint64(math.MaxUint64)
	for range warmCalls {
		runtime.GC()
		best = min(best, allocBytes(f))
	}
	return best
}

func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAllocBudgetBatchKernels holds SpGEMMParallel's A·A to its result plus
// per-worker accumulators, in bytes, on the adjacency matrices of the
// retired benchmark matrix's graphs: R-MAT and Erdős–Rényi at scales 10 and
// 12, edge factor 8, seed 42 (-short drops scale 12). It measures twice, as
// the kernels package's test of the same name does: with every pool empty,
// and with each pool holding what the previous call returned. Warm, the
// accumulators come back from the pool, so the budget is the result and a
// slack, which on each graph is at most twice the bytes the matrix recorded.
// The warm passes come last: Equal's zero budget would see the runtime's
// own bytes after warmAllocBytes restores GOMAXPROCS. Under the race
// detector sync.Pool drops a quarter of what it is handed, by design, so
// the warm pass is skipped there (racebuild.Enabled is set by a build tag).
func TestAllocBudgetBatchKernels(t *testing.T) {
	const workers = 2
	type input struct {
		name string
		a    *CSR
	}
	var ins []input
	for _, scale := range []int{10, 12} {
		if scale > 10 && testing.Short() {
			break
		}
		ins = append(ins,
			input{fmt.Sprintf("rmat-s%d-ef8", scale), AdjacencyMatrix(gen.RMAT(scale, 8, gen.Graph500RMAT, 42, false))},
			input{fmt.Sprintf("er-s%d-ef8", scale), AdjacencyMatrix(gen.ErdosRenyi(1<<scale, (1<<scale)*8/2, 42, false))})
	}
	var c *CSR
	// result is the bytes of the product's three arrays.
	result := func() uint64 { return uint64(len(c.RowPtr))*8 + uint64(c.NNZ())*12 }
	withWorkers(t, workers, func() {
		for _, in := range ins {
			got := coldAllocBytes(func() { c = SpGEMMParallel(PlusTimes, in.a, in.a) })
			// The product, plus per worker one accumulator over the columns
			// (8 B value, 4 B stamp, and a touched list of 4 B per column
			// whose append growth leaves up to as much again, twice, behind),
			// plus the scheduler's bookkeeping.
			budget := result() + workers*32*uint64(in.a.Cols) + 16<<10
			t.Logf("SpGEMMParallel %-12s cold %9d B, result %9d B, budget %9d B", in.name, got, result(), budget)
			if got > budget {
				t.Errorf("SpGEMMParallel on %s allocated %d B with cold pools, budget %d B (result %d B)", in.name, got, budget, result())
			}
			ref := SpGEMMGustavson(PlusTimes, in.a, in.a)
			var equal bool
			if got := coldAllocBytes(func() { equal = c.Equal(ref, 0) }); got != 0 || !equal {
				t.Errorf("Equal on %s allocated %d B (budget 0) and returned %v", in.name, got, equal)
			}
		}
		if racebuild.Enabled {
			return
		}
		for _, in := range ins {
			got := warmAllocBytes(func() { c = SpGEMMParallel(PlusTimes, in.a, in.a) })
			// The product, the scheduler's bookkeeping and the page rounding
			// of the product's arrays.
			budget := result() + 32<<10
			t.Logf("SpGEMMParallel %-12s warm %9d B, result %9d B, budget %9d B", in.name, got, result(), budget)
			if got > budget {
				t.Errorf("SpGEMMParallel on %s allocated %d B with warm pools, budget %d B (result %d B)", in.name, got, budget, result())
			}
		}
	})
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
