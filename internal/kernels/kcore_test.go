package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteKCore is the O(n^2·m) oracle: repeatedly strip vertices of degree
// < k for each k.
func bruteKCore(g *graph.Graph) []int32 {
	n := g.NumVertices()
	core := make([]int32, n)
	for k := int32(1); ; k++ {
		alive := make([]bool, n)
		anyAlive := false
		for v := int32(0); v < n; v++ {
			alive[v] = true
		}
		for changed := true; changed; {
			changed = false
			for v := int32(0); v < n; v++ {
				if !alive[v] {
					continue
				}
				d := int32(0)
				for _, w := range g.Neighbors(v) {
					if alive[w] {
						d++
					}
				}
				if d < k {
					alive[v] = false
					changed = true
				}
			}
		}
		for v := int32(0); v < n; v++ {
			if alive[v] {
				core[v] = k
				anyAlive = true
			}
		}
		if !anyAlive {
			return core
		}
	}
}

func TestKCoreKnown(t *testing.T) {
	// K5: everything is in the 4-core.
	res := KCore(gen.CompleteGraph(5))
	for _, c := range res.Core {
		if c != 4 {
			t.Fatalf("K5 core = %v", res.Core)
		}
	}
	if res.MaxCore != 4 {
		t.Fatalf("max core = %d", res.MaxCore)
	}
	// A ring is its own 2-core.
	res = KCore(gen.Ring(8))
	for _, c := range res.Core {
		if c != 2 {
			t.Fatalf("ring core = %v", res.Core)
		}
	}
	// A star collapses to 1-cores.
	res = KCore(gen.Star(6))
	for _, c := range res.Core {
		if c != 1 {
			t.Fatalf("star core = %v", res.Core)
		}
	}
	// A tree plus a triangle: triangle is the 2-core... plus pendant.
	g := graph.FromEdges(5, false, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}})
	res = KCore(g)
	want := []int32{2, 2, 2, 1, 1}
	for v, c := range res.Core {
		if c != want[v] {
			t.Fatalf("core = %v, want %v", res.Core, want)
		}
	}
}

func TestKCoreMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(40))
		g := gen.ErdosRenyi(n, rng.Intn(150), seed, false)
		fast := KCore(g)
		slow := bruteKCore(g)
		for v := range slow {
			if fast.Core[v] != slow[v] {
				return false
			}
		}
		return ValidateKCore(g, fast)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKCoreEmptyAndIsolated(t *testing.T) {
	res := KCore(graph.NewBuilder(0).Build())
	if res.MaxCore != 0 || len(res.Core) != 0 {
		t.Fatal("empty graph core wrong")
	}
	res = KCore(graph.NewBuilder(3).Build())
	for _, c := range res.Core {
		if c != 0 {
			t.Fatal("isolated vertices should have core 0")
		}
	}
}

func TestDegeneracyOrder(t *testing.T) {
	g := gen.RMAT(9, 8, gen.Graph500RMAT, 7, false)
	res := KCore(g)
	order := DegeneracyOrder(g)
	if len(order) != int(g.NumVertices()) {
		t.Fatal("order length wrong")
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if res.Core[a] > res.Core[b] {
			t.Fatal("order not by non-decreasing core")
		}
		if res.Core[a] == res.Core[b] && a >= b {
			t.Fatalf("ids %d, %d of core %d out of order", a, b, res.Core[a])
		}
	}
}

func TestValidateKCoreRejects(t *testing.T) {
	g := gen.CompleteGraph(4)
	res := KCore(g)
	res.Core[0] = 5 // claims a 5-core that cannot exist
	res.MaxCore = 5
	if ValidateKCore(g, res) {
		t.Fatal("inflated core accepted")
	}
}
