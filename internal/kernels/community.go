package kernels

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/scratch"
)

// CommunityResult assigns each vertex a community label (canonicalized to
// the minimum member ID) and reports the modularity of the assignment.
type CommunityResult struct {
	Label          []int32
	NumCommunities int32
	Modularity     float64
}

// LabelPropagation runs asynchronous label-propagation community detection:
// each vertex repeatedly adopts the most frequent label among its neighbors
// (ties broken toward the smaller label), visiting vertices in a seeded
// random order each round, until no label changes or maxRounds elapse.
func LabelPropagation(g *graph.Graph, maxRounds int, seed int64) *CommunityResult {
	n := g.NumVertices()
	label := make([]int32, n)
	for v := range label {
		label[v] = int32(v)
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	counts := BorrowVertexCounts(n)
	defer ReturnVertexCounts(counts)
	for round := 0; round < maxRounds; round++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := 0
		for _, v := range order {
			ns := g.Neighbors(v)
			if len(ns) == 0 {
				continue
			}
			counts.Reset()
			for _, w := range ns {
				counts.Add(label[w], 1)
			}
			best, bestCount := label[v], int32(0)
			for _, l := range counts.Touched() {
				if c := counts.Value(l); c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			if best != label[v] {
				label[v] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	cc := canonicalize(label)
	return &CommunityResult{
		Label:          cc.Label,
		NumCommunities: cc.NumComponents,
		Modularity:     Modularity(g, cc.Label),
	}
}

// Modularity computes the Newman modularity Q of a labeling on an undirected
// graph: Q = Σ_c (e_c/m - (d_c/2m)^2) where e_c is intra-community edges and
// d_c total degree of community c.
func Modularity(g *graph.Graph, label []int32) float64 {
	m := float64(g.NumUndirectedEdges())
	if m == 0 {
		return 0
	}
	n := g.NumVertices()
	intra := scratch.NewSPA[float64](int(n))
	deg := scratch.NewSPA[float64](int(n))
	for v := int32(0); v < n; v++ {
		lv := label[v]
		deg.Add(lv, float64(g.Degree(v)))
		for _, w := range g.Neighbors(v) {
			if label[w] == lv && w > v {
				intra.Add(lv, 1)
			}
		}
	}
	// Sum in sorted label order: float accumulation in arbitrary order
	// would make Q nondeterministic at the bit level, which the determinism
	// suite forbids.
	labels := deg.SortedTouched()
	q := 0.0
	for _, c := range labels {
		q += intra.Value(c) / m
	}
	for _, c := range labels {
		d := deg.Value(c)
		q -= (d / (2 * m)) * (d / (2 * m))
	}
	return q
}

// CommunityAccuracy scores a detected labeling against ground truth using
// pairwise agreement (Rand index restricted to edges of same-truth pairs is
// expensive; we use sampled pair agreement for large n, exact under 2k
// vertices).
func CommunityAccuracy(label, truth []int32, seed int64) float64 {
	n := len(label)
	if n != len(truth) || n < 2 {
		return 0
	}
	agree, total := 0, 0
	check := func(i, j int) {
		same1 := label[i] == label[j]
		same2 := truth[i] == truth[j]
		if same1 == same2 {
			agree++
		}
		total++
	}
	if n <= 2000 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				check(i, j)
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 200000; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				check(i, j)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(agree) / float64(total)
}
