package kernels

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func TestWCCParallelMatchesSerial(t *testing.T) {
	for _, scale := range []int{6, 9, 12} {
		g := gen.RMAT(scale, 8, gen.Graph500RMAT, int64(scale), false)
		a := WCC(g)
		b := WCCParallel(g)
		if a.NumComponents != b.NumComponents {
			t.Fatalf("scale %d: %d vs %d components", scale, a.NumComponents, b.NumComponents)
		}
		if !reflect.DeepEqual(a.Label, b.Label) {
			t.Fatalf("scale %d: labels differ", scale)
		}
	}
}

func TestWCCParallelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int32(2 + rng.Intn(80))
		g := gen.ErdosRenyi(n, rng.Intn(200), seed, rng.Intn(2) == 0)
		return reflect.DeepEqual(WCC(g).Label, WCCParallel(g).Label)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWCCParallelRepeatedDeterministic(t *testing.T) {
	// Concurrency must not change the result across runs.
	g := gen.RMAT(11, 8, gen.Graph500RMAT, 3, false)
	first := WCCParallel(g)
	for i := 0; i < 5; i++ {
		if !reflect.DeepEqual(first.Label, WCCParallel(g).Label) {
			t.Fatal("nondeterministic parallel WCC")
		}
	}
}

// wccTwoArray is the hook-and-compress WCC the in-place kernel replaced,
// kept as its oracle: the same hooks, but the final sweep writes each root
// into a second, label array.
func wccTwoArray(g *graph.Graph) *CCResult {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for {
			p := atomic.LoadInt32(&parent[v])
			if p == v {
				return v
			}
			gp := atomic.LoadInt32(&parent[p])
			if gp == p {
				return p
			}
			atomic.CompareAndSwapInt32(&parent[v], p, gp)
			v = gp
		}
	}
	par.For(int(n), par.Opt{Name: "test.wcc.hook"}, func(lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			for _, u := range g.Neighbors(v) {
				for {
					ra, rb := find(v), find(u)
					if ra == rb {
						break
					}
					if ra > rb {
						ra, rb = rb, ra
					}
					if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
						break
					}
				}
			}
		}
	})
	label := make([]int32, n)
	numComp := par.Reduce(int(n), par.Opt{Name: "test.wcc.sweep"},
		func(lo, hi int) int32 {
			var local int32
			for v := int32(lo); v < int32(hi); v++ {
				label[v] = find(v)
				if label[v] == v {
					local++
				}
			}
			return local
		},
		func(a, b int32) int32 { return a + b })
	return &CCResult{Label: label, NumComponents: numComp}
}

// TestDiffWCCMatchesTwoArray: labelling in the parent array itself gives
// the two-array kernel's labels and component count exactly, at every
// worker count.
func TestDiffWCCMatchesTwoArray(t *testing.T) {
	for _, dc := range fusedOracleGraphs() {
		want := wccTwoArray(dc.g)
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", dc.name, w), func(t *testing.T) {
				withWorkers(t, w, func() {
					got := WCCParallel(dc.g)
					if got.NumComponents != want.NumComponents {
						t.Fatalf("%d components, two-array kernel %d", got.NumComponents, want.NumComponents)
					}
					if !reflect.DeepEqual(got.Label, want.Label) {
						t.Fatal("labels differ from the two-array kernel")
					}
				})
			})
		}
	}
}
