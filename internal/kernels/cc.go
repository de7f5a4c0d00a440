package kernels

import (
	"repro/internal/graph"
	"repro/internal/scratch"
)

// CCResult labels every vertex with a component ID; IDs are the smallest
// vertex ID in the component, so results are canonical and comparable across
// algorithms.
type CCResult struct {
	Label         []int32
	NumComponents int32
}

// canonicalize relabels components by their minimum member so different
// algorithms produce identical outputs. The label domain is [0, n) (every
// producer labels with vertex or dense component IDs), so the relabeling
// runs through a SPA rather than a map.
func canonicalize(label []int32) *CCResult {
	minOf := scratch.NewSPA[int32](len(label))
	for v, l := range label {
		if p, fresh := minOf.Probe(l); fresh || int32(v) < *p {
			*p = int32(v)
		}
	}
	for v, l := range label {
		label[v] = minOf.Value(l)
	}
	return &CCResult{Label: label, NumComponents: int32(minOf.Len())}
}

// WCC computes weakly connected components with a union-find (disjoint set)
// structure using path halving and union by size. Directed arcs are treated
// as undirected.
func WCC(g *graph.Graph) *CCResult {
	n := g.NumVertices()
	uf := NewUnionFind(n)
	for v := int32(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			uf.Union(v, w)
		}
	}
	label := make([]int32, n)
	for v := int32(0); v < n; v++ {
		label[v] = uf.Find(v)
	}
	return canonicalize(label)
}

// WCCLabelProp computes weakly connected components by iterative label
// propagation (the style used on the Emu and linear-algebra machines, where
// it maps to repeated SpMV with the min.+ semiring). It is an independent
// oracle for WCC in tests.
func WCCLabelProp(g *graph.Graph) *CCResult {
	n := g.NumVertices()
	label := make([]int32, n)
	for v := range label {
		label[v] = int32(v)
	}
	rev := g
	if g.Directed() {
		rev = g.Transpose()
	}
	for changed := true; changed; {
		changed = false
		for v := int32(0); v < n; v++ {
			best := label[v]
			for _, w := range g.Neighbors(v) {
				if label[w] < best {
					best = label[w]
				}
			}
			if g.Directed() {
				for _, w := range rev.Neighbors(v) {
					if label[w] < best {
						best = label[w]
					}
				}
			}
			if best < label[v] {
				label[v] = best
				changed = true
			}
		}
	}
	return canonicalize(label)
}

// SCC computes strongly connected components with Tarjan's algorithm,
// implemented iteratively so deep graphs cannot overflow the goroutine
// stack.
func SCC(g *graph.Graph) *CCResult {
	n := g.NumVertices()
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = Unreached
		comp[i] = Unreached
	}
	var stack []int32
	var nextIndex int32
	var numComp int32

	type frame struct {
		v  int32
		ni int // next neighbor offset to visit
	}
	var callStack []frame

	for root := int32(0); root < n; root++ {
		if index[root] != Unreached {
			continue
		}
		callStack = append(callStack[:0], frame{v: root})
		index[root] = nextIndex
		low[root] = nextIndex
		nextIndex++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			ns := g.Neighbors(f.v)
			advanced := false
			for f.ni < len(ns) {
				w := ns[f.ni]
				f.ni++
				if index[w] == Unreached {
					index[w] = nextIndex
					low[w] = nextIndex
					nextIndex++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
					advanced = true
					break
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.v finished.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = numComp
					if w == v {
						break
					}
				}
				numComp++
			}
		}
	}
	return canonicalize(comp)
}

// SCCKosaraju computes strongly connected components with Kosaraju's
// two-pass algorithm; used as an independent oracle for SCC in tests.
func SCCKosaraju(g *graph.Graph) *CCResult {
	n := g.NumVertices()
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	// Iterative post-order DFS over g.
	type frame struct {
		v  int32
		ni int
	}
	var st []frame
	for root := int32(0); root < n; root++ {
		if visited[root] {
			continue
		}
		visited[root] = true
		st = append(st[:0], frame{v: root})
		for len(st) > 0 {
			f := &st[len(st)-1]
			ns := g.Neighbors(f.v)
			pushed := false
			for f.ni < len(ns) {
				w := ns[f.ni]
				f.ni++
				if !visited[w] {
					visited[w] = true
					st = append(st, frame{v: w})
					pushed = true
					break
				}
			}
			if !pushed {
				order = append(order, f.v)
				st = st[:len(st)-1]
			}
		}
	}
	// Second pass over transpose in reverse finish order.
	gt := g.Transpose()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = Unreached
	}
	var numComp int32
	var dfs []int32
	for i := len(order) - 1; i >= 0; i-- {
		root := order[i]
		if comp[root] != Unreached {
			continue
		}
		comp[root] = numComp
		dfs = append(dfs[:0], root)
		for len(dfs) > 0 {
			v := dfs[len(dfs)-1]
			dfs = dfs[:len(dfs)-1]
			for _, w := range gt.Neighbors(v) {
				if comp[w] == Unreached {
					comp[w] = numComp
					dfs = append(dfs, w)
				}
			}
		}
		numComp++
	}
	return canonicalize(comp)
}

// UnionFind is a disjoint-set forest with path halving and union by size.
// It is exported because the dedup code reuses it.
type UnionFind struct {
	parent []int32
	size   []int32
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int32) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the set representative of v.
func (uf *UnionFind) Find(v int32) int32 {
	for uf.parent[v] != v {
		uf.parent[v] = uf.parent[uf.parent[v]] // path halving
		v = uf.parent[v]
	}
	return v
}

// Union merges the sets of a and b; returns true if they were distinct.
func (uf *UnionFind) Union(a, b int32) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}

// Same reports whether a and b are in the same set.
func (uf *UnionFind) Same(a, b int32) bool { return uf.Find(a) == uf.Find(b) }

// SetSize returns the size of v's set.
func (uf *UnionFind) SetSize(v int32) int32 { return uf.size[uf.Find(v)] }
