package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/scratch"
)

// rankBySort is the oracle for the ranker: the reflection sort every
// per-vertex Jaccard answer was ordered with before the radix ranker,
// (score desc, v asc).
func rankBySort(in []JaccardPairScore) []JaccardPairScore {
	out := slices.Clone(in)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].V < out[j].V
	})
	return out
}

// rankByRanker pushes the pairs through the production ranker.
func rankByRanker(in []JaccardPairScore) []JaccardPairScore {
	rs := new(rankScratch)
	for _, p := range in {
		rs.a = append(rs.a, rankEntry{key: ^math.Float64bits(p.Score), v: p.V, inter: p.Inter})
	}
	out := make([]JaccardPairScore, 0, len(in))
	for _, e := range rs.sorted() {
		out = append(out, JaccardPairScore{V: e.v, Inter: e.inter, Score: math.Float64frombits(^e.key)})
	}
	return out
}

// scoredPairs builds n pairs with distinct partner ids and scores c/union
// drawn so that exact ties, equal scores from different c/union pairs
// (1/2 = 2/4) and near-ties all occur; spread bounds the unions, vbits the
// width of the partner ids.
func scoredPairs(rng *rand.Rand, n, spread, vbits int) []JaccardPairScore {
	stride := max(1, (1<<vbits)/max(n, 1))
	out := make([]JaccardPairScore, n)
	for i, j := range rng.Perm(n) {
		union := 1 + rng.Intn(spread)
		c := 1 + rng.Intn(union)
		out[i] = JaccardPairScore{V: int32(j * stride), Inter: int32(c), Score: float64(c) / float64(union)}
	}
	return out
}

func checkRank(t *testing.T, in []JaccardPairScore) {
	t.Helper()
	got, want := rankByRanker(in), rankBySort(in)
	if len(got) != len(want) {
		t.Fatalf("ranked %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank[%d] = %+v, want %+v (n=%d)", i, got[i], want[i], len(in))
		}
	}
}

func TestJaccardRankMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cases := map[string][]JaccardPairScore{
		"empty":  nil,
		"single": {{V: 7, Inter: 1, Score: 0.25}},
		"score ties break on v": {
			{V: 9, Inter: 1, Score: 0.5}, {V: 2, Inter: 1, Score: 0.5}, {V: 5, Inter: 1, Score: 0.5},
		},
		"equal scores from different c/union": {
			{V: 4, Inter: 2, Score: 2.0 / 4}, {V: 1, Inter: 1, Score: 1.0 / 2}, {V: 3, Inter: 3, Score: 3.0 / 6},
			{V: 8, Inter: 1, Score: 1.0 / 3}, {V: 6, Inter: 2, Score: 2.0 / 6},
		},
		"one ulp apart":     {{V: 1, Score: math.Nextafter(0.5, 0)}, {V: 2, Score: 0.5}, {V: 3, Score: math.Nextafter(0.5, 1)}},
		"score 1 and tiny":  {{V: 1, Score: 1}, {V: 2, Score: 1e-9}, {V: 3, Score: 1}, {V: 0, Score: math.SmallestNonzeroFloat64}},
		"all equal, radix":  scoredPairs(rng, rankRadixMin+5, 1, 20),
		"same v bits, wide": scoredPairs(rng, 3*rankRadixMin, 1<<20, 1),
		"high vertex ids":   scoredPairs(rng, 2*rankRadixMin, 50, 31),
	}
	for _, n := range []int{rankRadixMin - 1, rankRadixMin, rankRadixMin + 1} {
		cases[fmt.Sprintf("cutoff n=%d", n)] = scoredPairs(rng, n, 40, 16)
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkRank(t, in) })
	}
}

// FuzzJaccardRankMatchesSort: for any size on either side of the cutoff and
// any score/id distribution, the ranker's order is the reference sort's.
func FuzzJaccardRankMatchesSort(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(1), uint8(0))
	f.Add(int64(2), uint16(1), uint16(9), uint8(3))
	f.Add(int64(3), uint16(rankRadixMin-1), uint16(30), uint8(10))
	f.Add(int64(4), uint16(rankRadixMin), uint16(3), uint8(16))
	f.Add(int64(5), uint16(5000), uint16(65535), uint8(31))
	f.Add(int64(6), uint16(2000), uint16(1), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, n, spread uint16, vbits uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkRank(t, scoredPairs(rng, int(n), 1+int(spread), int(vbits%32)))
	})
}

// TestAppendJaccardRankedMatchesKernel: a caller that fills the accumulator
// itself and supplies degrees from a vector — the cluster coordinator's
// shape — gets the kernel's answer, after whatever dst already held.
func TestAppendJaccardRankedMatchesKernel(t *testing.T) {
	g := gen.RMAT(10, 8, gen.Graph500RMAT, 7, false)
	deg := make([]float64, g.NumVertices())
	for v := range deg {
		deg[v] = float64(g.Degree(int32(v)))
	}
	for _, u := range []int32{0, 3, 17, 600} {
		common := scratch.NewSPA[int32](int(g.NumVertices()))
		nu := g.Neighbors(u)
		for i := len(nu) - 1; i >= 0; i-- { // any accumulation order
			for _, v := range g.Neighbors(nu[i]) {
				if v != u {
					common.Add(v, 1)
				}
			}
		}
		prefix := []JaccardPairScore{{U: -1, V: -1}}
		got := AppendJaccardRanked(prefix, common, u, func(v int32) int32 { return int32(deg[v]) }, 0.05)
		want := JaccardFromVertex(g, u, 0.05)
		if got[0] != prefix[0] || !slices.Equal(got[1:], want) {
			t.Fatalf("u=%d: ranked %d pairs after the prefix, kernel %d, or they differ", u, len(got)-1, len(want))
		}
		all := JaccardFromVertex(g, u, 0)
		if best, ok := MaxJaccardFor(g, u); ok != (len(all) > 0) || (ok && best != all[0]) {
			t.Fatalf("u=%d: MaxJaccardFor = %+v, %v; want the head of JaccardFromVertex", u, best, ok)
		}
	}
}

// BenchmarkJaccardRank justifies rankRadixMin: the radix passes against the
// comparison sort on either side of it, over scores with full mantissas.
func BenchmarkJaccardRank(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024, 8192} {
		in := scoredPairs(rand.New(rand.NewSource(int64(n))), n, 4000, 16)
		entries := make([]rankEntry, n)
		for i, p := range in {
			entries[i] = rankEntry{key: ^math.Float64bits(p.Score), v: p.V, inter: p.Inter}
		}
		for name, sortFn := range map[string]func(*rankScratch){
			"radix": func(rs *rankScratch) { rs.radixSorted() },
			"cmp":   func(rs *rankScratch) { slices.SortFunc(rs.a, compareRankEntries) },
		} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				rs := new(rankScratch)
				for i := 0; i < b.N; i++ {
					rs.a = append(rs.a[:0], entries...)
					sortFn(rs)
				}
			})
		}
	}
}
