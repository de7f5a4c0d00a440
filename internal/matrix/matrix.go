// Package matrix implements the sparse linear-algebra substrate the paper's
// first emerging architecture (Section V.A) accelerates: CSR/CSC/COO sparse
// matrices over configurable semirings, SpMV, sparse-vector SpMSpV, and two
// SpGEMM algorithms (Gustavson row-scatter and multi-way heap merge — the
// latter being what the accelerator's hardware sorter implements).
//
// Graphs are expressed as boolean adjacency matrices, "where the (i,j)th
// element is 1 if there is an edge from vertex j to vertex i", and
// GraphBLAS-style algorithms (BFS, triangle counting) are built from these
// primitives in algebra.go.
package matrix

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Entry is one stored element in coordinate form.
type Entry struct {
	Row, Col int32
	Val      float64
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int32
	RowPtr     []int64
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the stored-element count.
func (m *CSR) NNZ() int64 { return int64(len(m.ColIdx)) }

// NewCSRFromEntries builds a CSR from coordinate entries, summing
// duplicates with ordinary addition.
func NewCSRFromEntries(rows, cols int32, entries []Entry) *CSR {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	// Merge duplicates.
	out := entries[:0]
	for _, e := range entries {
		if len(out) > 0 && out[len(out)-1].Row == e.Row && out[len(out)-1].Col == e.Col {
			out[len(out)-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	entries = out
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1)}
	m.ColIdx = make([]int32, len(entries))
	m.Vals = make([]float64, len(entries))
	for _, e := range entries {
		m.RowPtr[e.Row+1]++
	}
	for i := int32(0); i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	cursor := make([]int64, rows)
	copy(cursor, m.RowPtr[:rows])
	for _, e := range entries {
		p := cursor[e.Row]
		cursor[e.Row]++
		m.ColIdx[p] = e.Col
		m.Vals[p] = e.Val
	}
	return m
}

// Row returns the column indexes and values of row i (aliased storage).
func (m *CSR) Row(i int32) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}

// At returns element (i,j), 0 when absent.
func (m *CSR) At(i, j int32) float64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= j })
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Entries returns all stored entries in row-major order.
func (m *CSR) Entries() []Entry {
	out := make([]Entry, 0, m.NNZ())
	for i := int32(0); i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			out = append(out, Entry{Row: i, Col: j, Val: vals[k]})
		}
	}
	return out
}

// Transpose returns the CSC view of m materialized as a CSR of the
// transpose.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int64, m.Cols+1)}
	t.ColIdx = make([]int32, m.NNZ())
	t.Vals = make([]float64, m.NNZ())
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := int32(0); i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	cursor := make([]int64, m.Cols)
	copy(cursor, t.RowPtr[:m.Cols])
	for i := int32(0); i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			p := cursor[j]
			cursor[j]++
			t.ColIdx[p] = i
			t.Vals[p] = vals[k]
		}
	}
	return t
}

// Equal reports element-wise equality within eps. Rows are compared with a
// two-cursor merge, so an entry stored on one side only must be within eps
// of zero (explicit zeros equal absent entries).
func (m *CSR) Equal(o *CSR, eps float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := int32(0); i < m.Rows; i++ {
		mc, mv := m.Row(i)
		oc, ov := o.Row(i)
		mi, oi := 0, 0
		for mi < len(mc) || oi < len(oc) {
			switch {
			case oi >= len(oc) || (mi < len(mc) && mc[mi] < oc[oi]):
				if abs(mv[mi]) > eps {
					return false
				}
				mi++
			case mi >= len(mc) || oc[oi] < mc[mi]:
				if abs(ov[oi]) > eps {
					return false
				}
				oi++
			default:
				if abs(mv[mi]-ov[oi]) > eps {
					return false
				}
				mi++
				oi++
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AdjacencyMatrix converts a graph to its boolean adjacency matrix in the
// paper's convention: A[i][j] = 1 iff there is an edge from vertex j to
// vertex i (column = source, row = destination).
func AdjacencyMatrix(g *graph.Graph) *CSR {
	n := g.NumVertices()
	entries := make([]Entry, 0, g.NumEdges())
	for src := int32(0); src < n; src++ {
		for _, dst := range g.Neighbors(src) {
			entries = append(entries, Entry{Row: dst, Col: src, Val: 1})
		}
	}
	return NewCSRFromEntries(n, n, entries)
}

// Validate checks CSR invariants.
func (m *CSR) Validate() error {
	if int32(len(m.RowPtr)) != m.Rows+1 {
		return fmt.Errorf("matrix: rowptr length %d for %d rows", len(m.RowPtr), m.Rows)
	}
	for i := int32(0); i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("matrix: rowptr not monotone at %d", i)
		}
		cols, _ := m.Row(i)
		for k, j := range cols {
			if j < 0 || j >= m.Cols {
				return fmt.Errorf("matrix: row %d col %d out of range", i, j)
			}
			if k > 0 && cols[k-1] >= j {
				return fmt.Errorf("matrix: row %d columns not strictly sorted", i)
			}
		}
	}
	if m.RowPtr[m.Rows] != int64(len(m.ColIdx)) || len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("matrix: storage length mismatch")
	}
	return nil
}
