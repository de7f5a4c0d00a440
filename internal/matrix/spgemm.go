package matrix

import (
	"container/heap"

	"repro/internal/par"
	"repro/internal/scratch"
)

// MulFlops returns the number of semiring multiply operations C = A·B
// performs (Σ over stored a(i,k) of |row k of B|) — the "useful work" figure
// the accelerator results and the benchmark harness normalize throughput by
// (2·MulFlops ≈ FLOPs under plus-times).
func MulFlops(a, b *CSR) int64 {
	var flops int64
	for _, k := range a.ColIdx {
		flops += b.RowPtr[k+1] - b.RowPtr[k]
	}
	return flops
}

// SpGEMMGustavson computes C = A ⊕.⊗ B with Gustavson's row-wise algorithm:
// for each row i of A, scatter-accumulate scaled rows of B into a dense
// accumulator. This is the conventional cache-based CPU algorithm the
// accelerator in Fig. 4 is compared against; its weakness on very sparse
// inputs is the random scatter into the accumulator.
func SpGEMMGustavson(sr Semiring, a, b *CSR) *CSR {
	return spgemmRows(sr, a, b, par.Opt{Name: "spgemm.rows", Workers: 1})
}

// SpGEMMParallel is SpGEMMGustavson with the rows of A fanned out through
// the par scheduler, one accumulator per worker. Rows are independent and
// written to disjoint ranges of C, so the output is the same for any worker
// count; used by the scaling ablation and anywhere a whole-machine SpGEMM
// is wanted.
func SpGEMMParallel(sr Semiring, a, b *CSR) *CSR {
	return spgemmRows(sr, a, b, par.Opt{Name: "spgemm.rows"})
}

// spgemmRows sizes C before it fills it: a symbolic pass counts each row's
// distinct columns, a prefix sum turns the counts into RowPtr, and the
// numeric pass accumulates each row and writes it, sorted, straight into
// its range of the exact-size ColIdx/Vals — no per-chunk blocks, no stitch.
func spgemmRows(sr Semiring, a, b *CSR, opt par.Opt) *CSR {
	c := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1)}
	accs := make([]*scratch.SPA[float64], opt.WorkerCount())
	acc := func(w int) *scratch.SPA[float64] {
		if accs[w] == nil {
			accs[w] = borrowSPA(b.Cols)
		}
		return accs[w]
	}
	par.ForW(int(a.Rows), opt, func(w, lo, hi int) {
		seen := acc(w)
		for i := int32(lo); i < int32(hi); i++ {
			seen.Reset()
			aCols, _ := a.Row(i)
			for _, j := range aCols {
				bCols, _ := b.Row(j)
				for _, col := range bCols {
					seen.Probe(col)
				}
			}
			c.RowPtr[i+1] = int64(seen.Len())
		}
	})
	for i := int32(0); i < a.Rows; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	c.ColIdx = make([]int32, c.RowPtr[a.Rows])
	c.Vals = make([]float64, c.RowPtr[a.Rows])
	par.ForW(int(a.Rows), opt, func(w, lo, hi int) {
		sum := acc(w)
		for i := int32(lo); i < int32(hi); i++ {
			sum.Reset()
			aCols, aVals := a.Row(i)
			for k, j := range aCols {
				av := aVals[k]
				bCols, bVals := b.Row(j)
				for t, col := range bCols {
					prod := sr.Times(av, bVals[t])
					if p, fresh := sum.Probe(col); fresh {
						*p = prod
					} else {
						*p = sr.Plus(*p, prod)
					}
				}
			}
			cCols, cVals := c.Row(i)
			copy(cCols, sum.SortedTouched())
			for t, col := range cCols {
				cVals[t] = sum.Value(col)
			}
		}
	})
	for _, s := range accs {
		if s != nil {
			returnSPA(s)
		}
	}
	return c
}

type mergeItem struct {
	col int32
	val float64
	src int // which B-row stream
	k   int // cursor within that stream
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].col < h[j].col }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// SpGEMMHeapMerge computes C = A ⊕.⊗ B by k-way merging the selected rows
// of B per output row — the software analog of the Fig. 4 accelerator's
// hardware merge sorter, which "aligns the individual components from pairs
// of sparse vectors that are both non-zero" before the MAC ALU. Unlike
// Gustavson it makes no random accesses proportional to the output width,
// only ordered streaming ones, which is why hardware implements it well.
func SpGEMMHeapMerge(sr Semiring, a, b *CSR) *CSR {
	c := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1)}
	var h mergeHeap
	for i := int32(0); i < a.Rows; i++ {
		aCols, aVals := a.Row(i)
		h = h[:0]
		type stream struct {
			cols  []int32
			vals  []float64
			scale float64
		}
		streams := make([]stream, 0, len(aCols))
		for k, j := range aCols {
			bCols, bVals := b.Row(j)
			if len(bCols) == 0 {
				continue
			}
			streams = append(streams, stream{cols: bCols, vals: bVals, scale: aVals[k]})
		}
		for s := range streams {
			h = append(h, mergeItem{
				col: streams[s].cols[0],
				val: sr.Times(streams[s].scale, streams[s].vals[0]),
				src: s, k: 0,
			})
		}
		heap.Init(&h)
		curCol := int32(-1)
		var curVal float64
		flush := func() {
			if curCol >= 0 {
				c.ColIdx = append(c.ColIdx, curCol)
				c.Vals = append(c.Vals, curVal)
			}
		}
		for h.Len() > 0 {
			it := h[0]
			if it.col != curCol {
				flush()
				curCol = it.col
				curVal = it.val
			} else {
				curVal = sr.Plus(curVal, it.val)
			}
			s := &streams[it.src]
			if nk := it.k + 1; nk < len(s.cols) {
				h[0] = mergeItem{col: s.cols[nk], val: sr.Times(s.scale, s.vals[nk]), src: it.src, k: nk}
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
		}
		flush()
		c.RowPtr[i+1] = int64(len(c.ColIdx))
	}
	return c
}

// SpGEMMMasked computes (A ⊕.⊗ B) .* M — the masked product used by the
// GraphBLAS triangle-count formulation C = (A²).*A — without materializing
// unmasked entries: for each stored entry (i,j) of the mask it computes the
// dot product of A's row i with B's column j via at/bt transposes.
func SpGEMMMasked(sr Semiring, a, b, mask *CSR) *CSR {
	bt := b.Transpose()
	c := &CSR{Rows: a.Rows, Cols: b.Cols, RowPtr: make([]int64, a.Rows+1)}
	for i := int32(0); i < mask.Rows; i++ {
		mCols, _ := mask.Row(i)
		aCols, aVals := a.Row(i)
		for _, j := range mCols {
			// dot(A[i,:], B[:,j]) = dot(A[i,:], Bt[j,:])
			bCols, bVals := bt.Row(j)
			acc := sr.Zero
			ai, bi := 0, 0
			nonEmpty := false
			for ai < len(aCols) && bi < len(bCols) {
				switch {
				case aCols[ai] < bCols[bi]:
					ai++
				case aCols[ai] > bCols[bi]:
					bi++
				default:
					acc = sr.Plus(acc, sr.Times(aVals[ai], bVals[bi]))
					nonEmpty = true
					ai++
					bi++
				}
			}
			if nonEmpty {
				c.ColIdx = append(c.ColIdx, j)
				c.Vals = append(c.Vals, acc)
			}
		}
		c.RowPtr[i+1] = int64(len(c.ColIdx))
	}
	return c
}
