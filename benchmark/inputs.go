package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sizeSpec fixes every input dimension of a run. "full" is what the
// manifest measures; "smoke" is the same code on toy inputs for go test.
type sizeSpec struct {
	name         string
	scale        int // serve-read graph
	churnScale   int // serve-churn graph
	edgeFactor   int
	clusterScale int // cluster-mixed graph
	batchScale   int // batch-kernels graph
	smallScale   int // batch-kernels jaccard-topk / SpGEMM graph
	smallEF      int
	lookups      int // vertices the point lookups draw from
	traversals   int // vertices the khop/jaccard ops draw from
	edits        int // pre-generated ingest edits, cut into the workload's batch size
	verifySample int // vertices re-checked per op type after a mutating run
	probeEdges   int // edges for the graph.build and cluster probes
	burstEdits   int // edits in the server.ingest_keps burst
	minTimedOps  int // the run refuses to print a p99 from fewer open-loop ops
}

var sizes = map[string]sizeSpec{
	"full": {
		name: "full", scale: 16, churnScale: 15, edgeFactor: 16, clusterScale: 14,
		batchScale: 15, smallScale: 11, smallEF: 8, lookups: 4096, traversals: 1024,
		edits: 1 << 18, verifySample: 1024, probeEdges: 1 << 18,
		burstEdits: 200_000, minTimedOps: 1000,
	},
	"smoke": {
		name: "smoke", scale: 10, churnScale: 10, edgeFactor: 16, clusterScale: 10,
		batchScale: 10, smallScale: 8, smallEF: 8, lookups: 256, traversals: 128,
		edits: 1 << 14, verifySample: 64, probeEdges: 1 << 12,
		burstEdits: 5_000, minTimedOps: 100,
	},
}

// inputs is everything a workload hands the program, all derived from the
// seed before set-up starts.
type inputs struct {
	seed     int64
	scale    int
	n        int32
	edges    [][2]int32   // the raw R-MAT stream, self-loops and repeats included
	g        *graph.Graph // the benchmark's own copy: undirected, deduplicated
	lookups  []int32      // distinct non-isolated vertices, seed-derived order
	travs    []int32      // khop/jaccard vertices, stratified by two-hop work
	edits    [][]edit     // ingest batches: fresh inserts, 25% deletes of earlier inserts
	genRMAT  time.Duration
	genTotal time.Duration
}

// edit is one ingest update, the JSON shape graphd's /ingest accepts.
type edit struct {
	Src    int32 `json:"src"`
	Dst    int32 `json:"dst"`
	Delete bool  `json:"delete,omitempty"`
}

// buildCSR builds the benchmark's own undirected, deduplicated, loop-free
// CSR from an edge stream by counting sort, so input generation does not
// time (or depend on the speed of) graph.Builder; graph.build_ms probes that.
func buildCSR(n int32, edges [][2]int32) (*graph.Graph, error) {
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e[0] != e[1] {
			offsets[e[0]+1]++
			offsets[e[1]+1]++
		}
	}
	for v := int32(0); v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, offsets[n])
	cursor := slices.Clone(offsets[:n])
	for _, e := range edges {
		if e[0] != e[1] {
			targets[cursor[e[0]]] = e[1]
			cursor[e[0]]++
			targets[cursor[e[1]]] = e[0]
			cursor[e[1]]++
		}
	}
	// Sort and deduplicate each row, compacting in place.
	var w int64
	for v := int32(0); v < n; v++ {
		row := targets[offsets[v]:cursor[v]]
		slices.Sort(row)
		start := w
		for i, t := range row {
			if i == 0 || t != row[i-1] {
				targets[w] = t
				w++
			}
		}
		offsets[v] = start
	}
	offsets[n] = w
	return graph.FromCSRArrays(n, false, offsets, targets[:w:w], nil, nil)
}

// stratify picks n traversal vertices whose cost profile is the same for
// every seed. A khop(2) or jaccard query from v does work proportional to
// the summed degree of v's neighbours, which on an R-MAT graph spans four
// orders of magnitude; a uniform draw of 1,024 vertices holds a few hubs
// whose single query runs for most of a second through the coordinator and,
// with only nproc connections, decides a round's p99 and moves its
// throughput by a fifth. So the vertices (live is in seed-derived order) are
// ranked by that work and taken at evenly spaced ranks between the 5th and
// 95th percentile, leaving their seed-derived relative order in place.
func stratify(g *graph.Graph, live []int32, n int) []int32 {
	type ranked struct {
		v    int32
		work int64
		pos  int
	}
	rs := make([]ranked, len(live))
	for i, v := range live {
		var w int64
		for _, x := range g.Neighbors(v) {
			w += int64(g.Degree(x))
		}
		rs[i] = ranked{v, w, i}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int { return cmp.Compare(a.work, b.work) })
	lo, hi := len(rs)/20, len(rs)-len(rs)/20
	picked := make([]ranked, n)
	for i := range picked {
		picked[i] = rs[lo+i*(hi-lo)/n]
	}
	slices.SortFunc(picked, func(a, b ranked) int { return cmp.Compare(a.pos, b.pos) })
	out := make([]int32, n)
	for i, r := range picked {
		out[i] = r.v
	}
	return out
}

// edgeKey is the canonical identity of an undirected edge.
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// deleteLag is how many edits must separate an insert from its delete.
// graphd deduplicates same-edge edits within one applied batch (at most 1024
// consecutive edits), so a smaller lag would make "applied" fall short of
// "accepted" and the quiesce test below could not be exact.
const deleteLag = 2048

// genEdits builds the ingest stream: every insert is an edge absent from g
// and from the stream so far, and a quarter of the edits are deletes, of an
// edge the stream inserted at least deleteLag edits earlier when there is
// one, otherwise of an edge of g; no edge is deleted twice. Every edit
// therefore changes the graph, deletes are part of the mix from the first
// batch on, and the final graph does not depend on the order in which
// concurrent clients' batches were applied.
func genEdits(g *graph.Graph, scale, batches, perBatch int, seed int64) [][]edit {
	total := batches * perBatch
	rng := rand.New(rand.NewSource(seed))
	raw := gen.RMATEdgeStream(scale, total+total/4, gen.Graph500RMAT, seed)
	seen := make(map[uint64]struct{}, total)
	var inserted [][2]int32 // in insertion order; deletable once old enough
	var insertedAt []int
	nextDel := 0
	baseEdge := func() (int32, int32) { // a random edge of g not deleted yet
		for {
			u := rng.Int31n(g.NumVertices())
			if d := g.Degree(u); d > 0 {
				v := g.Neighbors(u)[rng.Int31n(d)]
				if _, dup := seen[edgeKey(u, v)]; !dup {
					seen[edgeKey(u, v)] = struct{}{}
					return u, v
				}
			}
		}
	}
	out := make([][]edit, 0, batches)
	cur := make([]edit, 0, perBatch)
	ri := 0
	for i := 0; i < total; i++ {
		var e edit
		if rng.Intn(4) == 0 {
			if nextDel < len(inserted) && insertedAt[nextDel]+deleteLag <= i {
				e = edit{Src: inserted[nextDel][0], Dst: inserted[nextDel][1], Delete: true}
				nextDel++
			} else {
				u, v := baseEdge()
				e = edit{Src: u, Dst: v, Delete: true}
			}
		} else {
			for {
				var u, v int32
				if ri < len(raw) {
					u, v = raw[ri][0], raw[ri][1]
					ri++
				} else { // R-MAT repeats ran the stream dry; uniform pairs are always fresh enough
					u, v = rng.Int31n(1<<scale), rng.Int31n(1<<scale)
				}
				if u == v || g.HasEdge(u, v) {
					continue
				}
				k := edgeKey(u, v)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				inserted = append(inserted, [2]int32{u, v})
				insertedAt = append(insertedAt, i)
				e = edit{Src: u, Dst: v}
				break
			}
		}
		cur = append(cur, e)
		if len(cur) == perBatch {
			out = append(out, cur)
			cur = make([]edit, 0, perBatch)
		}
	}
	return out
}

// replay returns the graph after the accepted prefixes of the given ingest
// batches. Stream edges are unique and a delete trails its insert by
// deleteLag edits, so whichever connection carried which batch the server
// saw each insert before its delete and the result is order-independent.
func (in *inputs) replay(accepted []acceptRec) (*graph.Graph, error) {
	deleted := map[uint64]struct{}{}
	edges := slices.Clone(in.edges)
	for _, a := range accepted {
		for _, e := range in.edits[a.b][:a.n] {
			if e.Delete {
				deleted[edgeKey(e.Src, e.Dst)] = struct{}{}
			} else {
				edges = append(edges, [2]int32{e.Src, e.Dst})
			}
		}
	}
	kept := edges[:0]
	for _, e := range edges {
		if _, gone := deleted[edgeKey(e[0], e[1])]; !gone {
			kept = append(kept, e)
		}
	}
	return buildCSR(in.n, kept)
}

// makeInputs generates a workload's inputs from the seed; batchEdits is the
// size of its ingest ops, 0 for a workload that writes nothing.
func makeInputs(sz sizeSpec, scale int, seed int64, batchEdits int) (*inputs, error) {
	t0 := time.Now()
	in := &inputs{seed: seed, scale: scale, n: int32(1) << scale}
	in.edges = gen.RMATEdgeStream(scale, sz.edgeFactor<<scale, gen.Graph500RMAT, seed)
	in.genRMAT = time.Since(t0)
	g, err := buildCSR(in.n, in.edges)
	if err != nil {
		return nil, fmt.Errorf("build input graph: %w", err)
	}
	in.g = g

	// GAP practice: query vertices are drawn from the non-isolated ones, so
	// no trial degenerates to an empty answer.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var live []int32
	for _, v := range rng.Perm(int(in.n)) {
		if g.Degree(int32(v)) > 0 {
			live = append(live, int32(v))
		}
	}
	if len(live) < sz.lookups || len(live) < 2*sz.traversals {
		return nil, fmt.Errorf("only %d non-isolated vertices at scale %d", len(live), scale)
	}
	in.lookups = live[:sz.lookups]
	in.travs = stratify(g, live, sz.traversals)
	if batchEdits > 0 {
		in.edits = genEdits(g, scale, sz.edits/batchEdits, batchEdits, seed+1)
	}
	in.genTotal = time.Since(t0)
	return in, nil
}

// mix is an op-type schedule: a cycle in which each type appears exactly its
// share of times, spread as evenly as the shares allow (smooth weighted
// round-robin), and rotated by the seed. Op i has type cycle[i%len]. Even
// spacing matters for the writes: graphd merges ingests that arrive within
// one 25ms flush interval into one version bump, so a schedule that puts two
// ingests next to each other halves the bumps, and with them the stalls and
// the allocation per op, for that seed only.
type mix struct {
	cycle []opKind
}

func newMix(seed int64, shares map[opKind]int) mix {
	total := 0
	for _, n := range shares {
		total += n
	}
	credit := make([]int, numOpKinds)
	cycle := make([]opKind, 0, total)
	for len(cycle) < total {
		best := opKind(0)
		for k := opKind(0); k < numOpKinds; k++ {
			credit[k] += shares[k]
			if credit[k] > credit[best] {
				best = k
			}
		}
		credit[best] -= total
		cycle = append(cycle, best)
	}
	rot := int(uint64(seed) % uint64(total))
	return mix{append(cycle[rot:], cycle[:rot]...)}
}

func (m mix) kind(i int) opKind { return m.cycle[i%len(m.cycle)] }

// pick spreads op indices over a vertex set with a stride coprime to any
// power-of-two set size, so consecutive ops of one type hit different vertices.
func pick(set []int32, i int) int32 { return set[(i*7919)%len(set)] }
