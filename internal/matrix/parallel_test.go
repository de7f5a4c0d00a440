package matrix

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/par"
	"repro/internal/scratch"
)

func withWorkers(t *testing.T, w int, f func()) {
	t.Helper()
	prev := par.DefaultWorkers()
	par.SetDefaultWorkers(w)
	defer par.SetDefaultWorkers(prev)
	f()
}

func TestSpGEMMParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(4 + rng.Intn(40))
		a := randomCSR(rng, n, n, 5*int(n))
		b := randomCSR(rng, n, n, 5*int(n))
		return SpGEMMParallel(PlusTimes, a, b).Equal(SpGEMMGustavson(PlusTimes, a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpGEMMParallelValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomCSR(rng, 200, 200, 2000)
	c := SpGEMMParallel(PlusTimes, a, a)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NNZ() == 0 {
		t.Fatal("empty product")
	}
}

func TestSpGEMMParallelTinyInput(t *testing.T) {
	// Fewer rows than workers must not break stitching.
	a := NewCSRFromEntries(2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	c := SpGEMMParallel(PlusTimes, a, a)
	if c.At(0, 0) != 1 || c.At(1, 1) != 4 {
		t.Fatalf("tiny product = %v", c.Entries())
	}
}

// TestParallelOpsDifferential compares every row-parallel operation against
// its sequential reference under multiple worker counts and semirings; the
// stitched CSRs must be byte-identical, not just numerically close.
func TestParallelOpsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, w), func(t *testing.T) {
				withWorkers(t, w, func() {
					rng := rand.New(rand.NewSource(seed))
					n := int32(60 + rng.Intn(100))
					a := randomCSR(rng, n, n, 8*int(n))
					b := randomCSR(rng, n, n, 8*int(n))
					for _, sr := range []Semiring{PlusTimes, MinPlus} {
						if got, want := SpGEMMParallel(sr, a, b), SpGEMMGustavson(sr, a, b); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: SpGEMMParallel differs from Gustavson", sr.Name)
						}
					}
					if got, want := EWiseAddParallel(PlusTimes, a, b), EWiseAdd(PlusTimes, a, b); !reflect.DeepEqual(got, want) {
						t.Fatal("EWiseAddParallel differs from EWiseAdd")
					}
					if got, want := EWiseMultParallel(PlusTimes, a, b), EWiseMult(PlusTimes, a, b); !reflect.DeepEqual(got, want) {
						t.Fatal("EWiseMultParallel differs from EWiseMult")
					}
					if got, want := ReduceRowsParallel(PlusTimes, a), ReduceRows(PlusTimes, a); !reflect.DeepEqual(got, want) {
						t.Fatal("ReduceRowsParallel differs from ReduceRows")
					}
				})
			})
		}
	}
}

// TestParallelOpsEmpty exercises the zero-row and zero-nnz edges of the
// block stitcher.
func TestParallelOpsEmpty(t *testing.T) {
	empty := NewCSRFromEntries(0, 0, nil)
	if c := SpGEMMParallel(PlusTimes, empty, empty); c.NNZ() != 0 || c.Rows != 0 {
		t.Fatal("empty SpGEMM not empty")
	}
	z := NewCSRFromEntries(5, 5, nil)
	if c := EWiseAddParallel(PlusTimes, z, z); c.NNZ() != 0 || c.Rows != 5 {
		t.Fatal("zero-pattern EWiseAdd not empty")
	}
	if c := EWiseMultParallel(PlusTimes, z, z); c.NNZ() != 0 {
		t.Fatal("zero-pattern EWiseMult not empty")
	}
	if s := ReduceRowsParallel(PlusTimes, z); len(s) != 5 {
		t.Fatalf("reduce over empty rows = %v", s)
	}
}

// TestParallelOpsWorkerDeterminism: identical bits for any worker count.
func TestParallelOpsWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randomCSR(rng, 301, 301, 4000)
	b := randomCSR(rng, 301, 301, 4000)
	var baseG, baseA *CSR
	var baseR []float64
	withWorkers(t, 1, func() {
		baseG = SpGEMMParallel(PlusTimes, a, b)
		baseA = EWiseAddParallel(PlusTimes, a, b)
		baseR = ReduceRowsParallel(PlusTimes, a)
	})
	for _, w := range []int{2, 3, 8} {
		withWorkers(t, w, func() {
			if !reflect.DeepEqual(SpGEMMParallel(PlusTimes, a, b), baseG) {
				t.Fatalf("workers=%d: SpGEMM bits differ", w)
			}
			if !reflect.DeepEqual(EWiseAddParallel(PlusTimes, a, b), baseA) {
				t.Fatalf("workers=%d: EWiseAdd bits differ", w)
			}
			if !reflect.DeepEqual(ReduceRowsParallel(PlusTimes, a), baseR) {
				t.Fatalf("workers=%d: ReduceRows bits differ", w)
			}
		})
	}
}

// spgemmBlockAndStitch is the SpGEMM the size-then-fill kernel replaced: each
// chunk of rows appends into a private block and the blocks are stitched in
// chunk order. It stays here as the differential oracle.
func spgemmBlockAndStitch(sr Semiring, a, b *CSR) *CSR {
	blocks := par.Chunks(int(a.Rows), par.Opt{Name: "test.spgemm.blocks"},
		func(_, lo, hi int) rowBlock {
			acc := scratch.NewSPA[float64](int(b.Cols))
			out := rowBlock{lo: int32(lo), hi: int32(hi), rowPtr: make([]int64, hi-lo+1)}
			for i := int32(lo); i < int32(hi); i++ {
				acc.Reset()
				aCols, aVals := a.Row(i)
				for k, j := range aCols {
					bCols, bVals := b.Row(j)
					for t, col := range bCols {
						prod := sr.Times(aVals[k], bVals[t])
						if p, fresh := acc.Probe(col); fresh {
							*p = prod
						} else {
							*p = sr.Plus(*p, prod)
						}
					}
				}
				for _, col := range acc.SortedTouched() {
					out.colIdx = append(out.colIdx, col)
					out.vals = append(out.vals, acc.Value(col))
				}
				out.rowPtr[i-int32(lo)+1] = int64(len(out.colIdx))
			}
			return out
		})
	return stitchBlocks(a.Rows, b.Cols, blocks)
}

// sameCSR is byte-for-byte equality of shape, row pointers, columns and
// values (an empty array equals a nil one).
func sameCSR(x, y *CSR) bool {
	return x.Rows == y.Rows && x.Cols == y.Cols && slices.Equal(x.RowPtr, y.RowPtr) &&
		slices.Equal(x.ColIdx, y.ColIdx) && slices.Equal(x.Vals, y.Vals)
}

// TestSpGEMMMatchesBlockAndStitch runs both entry points of the
// size-then-fill kernel against the oracle on the shapes that stress the
// sizing pass: rows of A that are empty, a product with no entry at all, a
// hub row whose flops far exceed the column count, and a rectangular pair.
func TestSpGEMMMatchesBlockAndStitch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sparse := randomCSR(rng, 120, 120, 150) // most rows empty
	var hubEntries []Entry
	for j := int32(0); j < 64; j++ {
		hubEntries = append(hubEntries, Entry{Row: 3, Col: j, Val: float64(j%7 + 1)}) // row 3 selects every row of B
		for k := int32(0); k < 64; k += 2 {
			hubEntries = append(hubEntries, Entry{Row: j, Col: k, Val: float64((j+k)%5 + 1)})
		}
	}
	hub := NewCSRFromEntries(64, 64, hubEntries) // row 3: ~2,000 flops into 64 columns
	// left's columns are all >= 5 and right's rows below 5 are its only
	// non-empty ones, so the product has no entry.
	left := NewCSRFromEntries(10, 10, []Entry{{0, 7, 1}, {4, 9, 2}, {9, 5, 3}})
	right := NewCSRFromEntries(10, 10, []Entry{{0, 1, 1}, {3, 3, 1}, {4, 0, 1}})
	cases := []struct {
		name string
		a, b *CSR
	}{
		{"empty-rows", sparse, sparse},
		{"hub-row", hub, hub},
		{"all-empty-product", left, right},
		{"no-rows", NewCSRFromEntries(0, 0, nil), NewCSRFromEntries(0, 0, nil)},
		{"rectangular", randomCSR(rng, 30, 70, 200), randomCSR(rng, 70, 20, 300)},
		{"dense-ish", randomCSR(rng, 90, 90, 2500), randomCSR(rng, 90, 90, 2500)},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(t *testing.T) {
				withWorkers(t, w, func() {
					for _, sr := range []Semiring{PlusTimes, MinPlus} {
						want := spgemmBlockAndStitch(sr, tc.a, tc.b)
						for name, got := range map[string]*CSR{
							"SpGEMMParallel":  SpGEMMParallel(sr, tc.a, tc.b),
							"SpGEMMGustavson": SpGEMMGustavson(sr, tc.a, tc.b),
						} {
							if err := got.Validate(); err != nil {
								t.Fatalf("%s %s: %v", sr.Name, name, err)
							}
							if !sameCSR(got, want) {
								t.Fatalf("%s: %s differs from the block-and-stitch oracle", sr.Name, name)
							}
						}
					}
				})
			})
		}
	}
	if c := SpGEMMParallel(PlusTimes, left, right); c.NNZ() != 0 || len(c.RowPtr) != 11 {
		t.Fatalf("all-empty product has %d entries, %d row pointers", c.NNZ(), len(c.RowPtr))
	}
}

// equalByEntries is Equal as it was first written, over two materialised
// entry lists in row-major order; the oracle for the row-merge Equal.
func equalByEntries(m, o *CSR, eps float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	less := func(a, b Entry) bool { return a.Row < b.Row || a.Row == b.Row && a.Col < b.Col }
	me, oe := m.Entries(), o.Entries()
	mi, oi := 0, 0
	for mi < len(me) || oi < len(oe) {
		switch {
		case oi >= len(oe) || (mi < len(me) && less(me[mi], oe[oi])):
			if abs(me[mi].Val) > eps {
				return false
			}
			mi++
		case mi >= len(me) || less(oe[oi], me[mi]):
			if abs(oe[oi].Val) > eps {
				return false
			}
			oi++
		default:
			if abs(me[mi].Val-oe[oi].Val) > eps {
				return false
			}
			mi++
			oi++
		}
	}
	return true
}

func TestEqualMatchesEntryMerge(t *testing.T) {
	// Explicit zeros equal absent entries; eps bounds every difference.
	withZero := &CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 2, 3}, ColIdx: []int32{0, 2, 1}, Vals: []float64{1, 0, 5}}
	without := &CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{0, 1}, Vals: []float64{1, 5}}
	if !withZero.Equal(without, 0) || !without.Equal(withZero, 0) {
		t.Fatal("an explicit zero should equal an absent entry")
	}
	near := &CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{0, 1}, Vals: []float64{1, 5.05}}
	if without.Equal(near, 0.01) || !without.Equal(near, 0.1) {
		t.Fatal("eps is not the bound on a shared entry's difference")
	}
	if without.Equal(&CSR{Rows: 2, Cols: 4, RowPtr: []int64{0, 0, 0}}, 1e9) {
		t.Fatal("different shapes compare equal")
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := int32(1 + rng.Intn(12))
		a := randomCSR(rng, n, n, rng.Intn(40))
		b := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Vals: slices.Clone(a.Vals)}
		switch trial % 4 {
		case 1: // perturb one value, sometimes within eps
			if len(b.Vals) > 0 {
				b.Vals[rng.Intn(len(b.Vals))] += []float64{0.001, 0.5}[rng.Intn(2)]
			}
		case 2: // an unrelated pattern
			b = randomCSR(rng, n, n, rng.Intn(40))
		case 3: // zero one stored value: explicit zero on one side
			if len(b.Vals) > 0 {
				b.Vals[rng.Intn(len(b.Vals))] = 0
			}
		}
		for _, eps := range []float64{0, 0.01, 20} {
			if got, want := a.Equal(b, eps), equalByEntries(a, b, eps); got != want {
				t.Fatalf("trial %d eps %g: Equal = %v, entry merge = %v", trial, eps, got, want)
			}
			if got, want := b.Equal(a, eps), equalByEntries(b, a, eps); got != want {
				t.Fatalf("trial %d eps %g (swapped): Equal = %v, entry merge = %v", trial, eps, got, want)
			}
		}
	}
}
