package matrix

import "repro/internal/par"

// Row-parallel operations: each chunk of rows is computed into a private
// block (local row pointers + column/value arrays) through the par
// scheduler, and blocks are stitched into one CSR in chunk order. Chunk
// boundaries depend only on the row count, so every operation here returns
// byte-identical output for any worker count.

// rowBlock is one chunk's partial CSR: local offsets over [lo, hi) rows.
type rowBlock struct {
	lo, hi int32
	rowPtr []int64 // local offsets, len = hi-lo+1
	colIdx []int32
	vals   []float64
}

// stitchBlocks concatenates per-chunk row blocks (in chunk order) into one
// CSR with the given shape.
func stitchBlocks(rows, cols int32, blocks []rowBlock) *CSR {
	c := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	var total int64
	for _, b := range blocks {
		total += int64(len(b.colIdx))
	}
	c.ColIdx = make([]int32, 0, total)
	c.Vals = make([]float64, 0, total)
	for _, b := range blocks {
		base := int64(len(c.ColIdx))
		c.ColIdx = append(c.ColIdx, b.colIdx...)
		c.Vals = append(c.Vals, b.vals...)
		for i := b.lo; i < b.hi; i++ {
			c.RowPtr[i+1] = base + b.rowPtr[i-b.lo+1]
		}
	}
	return c
}

// EWiseAddParallel computes C = A ⊕ B element-wise over the union of
// patterns, row-parallel. Same output as EWiseAdd for any worker count.
func EWiseAddParallel(sr Semiring, a, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("matrix: EWiseAddParallel shape mismatch")
	}
	blocks := par.Chunks(int(a.Rows), par.Opt{Name: "ewise.add"},
		func(_, lo, hi int) rowBlock {
			out := rowBlock{lo: int32(lo), hi: int32(hi), rowPtr: make([]int64, hi-lo+1)}
			for i := int32(lo); i < int32(hi); i++ {
				ac, av := a.Row(i)
				bc, bv := b.Row(i)
				ai, bi := 0, 0
				for ai < len(ac) || bi < len(bc) {
					switch {
					case bi >= len(bc) || (ai < len(ac) && ac[ai] < bc[bi]):
						out.colIdx = append(out.colIdx, ac[ai])
						out.vals = append(out.vals, av[ai])
						ai++
					case ai >= len(ac) || bc[bi] < ac[ai]:
						out.colIdx = append(out.colIdx, bc[bi])
						out.vals = append(out.vals, bv[bi])
						bi++
					default:
						out.colIdx = append(out.colIdx, ac[ai])
						out.vals = append(out.vals, sr.Plus(av[ai], bv[bi]))
						ai++
						bi++
					}
				}
				out.rowPtr[i-int32(lo)+1] = int64(len(out.colIdx))
			}
			return out
		})
	return stitchBlocks(a.Rows, a.Cols, blocks)
}

// EWiseMultParallel computes C = A ⊗ B element-wise over the intersection
// of patterns, row-parallel. Same output as EWiseMult for any worker count.
func EWiseMultParallel(sr Semiring, a, b *CSR) *CSR {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("matrix: EWiseMultParallel shape mismatch")
	}
	blocks := par.Chunks(int(a.Rows), par.Opt{Name: "ewise.mult"},
		func(_, lo, hi int) rowBlock {
			out := rowBlock{lo: int32(lo), hi: int32(hi), rowPtr: make([]int64, hi-lo+1)}
			for i := int32(lo); i < int32(hi); i++ {
				ac, av := a.Row(i)
				bc, bv := b.Row(i)
				ai, bi := 0, 0
				for ai < len(ac) && bi < len(bc) {
					switch {
					case ac[ai] < bc[bi]:
						ai++
					case ac[ai] > bc[bi]:
						bi++
					default:
						out.colIdx = append(out.colIdx, ac[ai])
						out.vals = append(out.vals, sr.Times(av[ai], bv[bi]))
						ai++
						bi++
					}
				}
				out.rowPtr[i-int32(lo)+1] = int64(len(out.colIdx))
			}
			return out
		})
	return stitchBlocks(a.Rows, a.Cols, blocks)
}

// ReduceRowsParallel folds each row with sr.Plus, row-parallel; same output
// as ReduceRows for any worker count (each row folds sequentially).
func ReduceRowsParallel(sr Semiring, a *CSR) []float64 {
	out := make([]float64, a.Rows)
	par.For(int(a.Rows), par.Opt{Name: "reduce.rows"}, func(lo, hi int) {
		for i := int32(lo); i < int32(hi); i++ {
			acc := sr.Zero
			_, vals := a.Row(i)
			for _, v := range vals {
				acc = sr.Plus(acc, v)
			}
			out[i] = acc
		}
	})
	return out
}
