package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/wire"
)

// TestGatherWCCMatchesKernel: the one-superstep distributed WCC over fake
// shards, each labelling only its owned rows, merges to kernels.WCC's
// labels, component count and sizes at two and three shards.
func TestGatherWCCMatchesKernel(t *testing.T) {
	g := testGraph()
	want := kernels.WCC(g)
	wantSizes := map[int32]int64{}
	for _, l := range want.Label {
		wantSizes[l]++
	}
	for _, shards := range []int{2, 3} {
		c, _ := startFakeShards(t, g, shards)
		st, err := c.gatherWCC(context.Background())
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !slices.Equal(st.Labels, want.Label) || st.Components != want.NumComponents {
			t.Fatalf("%d shards: %d components, labels differ from the kernel's %d: %v",
				shards, st.Components, want.NumComponents, !slices.Equal(st.Labels, want.Label))
		}
		sized := 0
		for l, n := range st.Sizes {
			if n != wantSizes[int32(l)] {
				t.Fatalf("%d shards: component %d has %d members, kernel %d", shards, l, n, wantSizes[int32(l)])
			}
			if n > 0 {
				sized++
			}
		}
		if sized != len(wantSizes) {
			t.Fatalf("%d shards: %d sized components, kernel %d", shards, sized, len(wantSizes))
		}
	}
}

// TestRunPageRankMatchesKernel: the superstep-driven PageRank over fake
// shards converges in kernels.PageRank's iteration count to its ranks
// within accumulation-order rounding, at two and three shards.
func TestRunPageRankMatchesKernel(t *testing.T) {
	g := testGraph()
	want, wantIters := kernels.PageRank(g, kernels.DefaultPageRankOptions())
	for _, shards := range []int{2, 3} {
		c, _ := startFakeShards(t, g, shards)
		st, err := c.runPageRank(context.Background())
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if st.Iterations != wantIters {
			t.Errorf("%d shards: %d iterations, kernel %d", shards, st.Iterations, wantIters)
		}
		for v := range want {
			if d := math.Abs(st.Scores[v] - want[v]); d > 1e-9 {
				t.Fatalf("%d shards: rank[%d] = %v, kernel %v (diff %g)", shards, v, st.Scores[v], want[v], d)
			}
		}
	}
}

// TestPageRankSkewRetry: a shard whose version moves mid-superstep fails
// the gather with skew. The coordinator retries it once — which succeeds
// when the shard has settled — and answers 503 when the retry skews too;
// either way cluster_skew_retries_total counts the one retry.
func TestPageRankSkewRetry(t *testing.T) {
	g := testGraph()
	want, _ := kernels.PageRank(g, kernels.DefaultPageRankOptions())
	c, fakes := startFakeShards(t, g, 2)
	retries := c.cfg.Registry.Counter("cluster_skew_retries_total")

	fakes[1].skews.Store(1)
	got, err := c.Read(context.Background(), wire.OpPageRank)
	if err != nil {
		t.Fatalf("after one skewed superstep: %v", err)
	}
	if d := math.Abs(got.Scores[3] - want[3]); d > 1e-9 {
		t.Fatalf("retried rank[3] = %v, kernel %v", got.Scores[3], want[3])
	}
	if n := retries.Value(); n != 1 {
		t.Fatalf("skew retries = %v after one skew, want 1", n)
	}

	fakes[1].version.Add(1) // an ingest batch, so the cached ranks go stale
	fakes[1].skews.Store(1 << 20)
	_, err = c.Read(context.Background(), wire.OpPageRank)
	if code := wire.StatusOf(err); code != http.StatusServiceUnavailable || !strings.Contains(err.Error(), "skew") {
		t.Fatalf("pagerank under continuous skew = %d %v, want 503 naming the skew", code, err)
	}
	if n := retries.Value(); n != 2 {
		t.Fatalf("skew retries = %v, want 2: one retry per query, not a loop", n)
	}
}

// TestPollShardReadmitsShard: a shard whose shard.meta stops matching the
// coordinator's config drops out of readiness on the next poll, with the
// mismatch as its evidence, and is re-admitted by the first poll after its
// meta is valid again.
func TestPollShardReadmitsShard(t *testing.T) {
	g := testGraph()
	c, fakes := startFakeShards(t, g, 2)
	ready := c.cfg.Registry.Gauge("cluster_shards_ready")
	errs := c.m.shardErrors(1)
	check := func(when string, wantReady bool, wantDetail string) {
		t.Helper()
		r := c.Readiness()
		if r.Ready != wantReady || r.Checks[1].OK != wantReady || !r.Checks[0].OK {
			t.Fatalf("%s: readiness %+v, want ready=%v", when, r, wantReady)
		}
		if !strings.Contains(r.Checks[1].Detail, wantDetail) {
			t.Fatalf("%s: shard-1 detail %q, want it to mention %q", when, r.Checks[1].Detail, wantDetail)
		}
		if want := map[bool]float64{true: 2, false: 1}[wantReady]; ready.Value() != want {
			t.Fatalf("%s: cluster_shards_ready = %v, want %v", when, ready.Value(), want)
		}
	}
	owned := fmt.Sprintf("owns %d vertices", OwnedCount(g.NumVertices(), 1, 2))
	check("at registration", true, owned)

	for round := 0; round < 2; round++ {
		fakes[1].badMeta.Store(true)
		before := errs.Value()
		c.pollAll()
		check("with a mismatched meta", false, "identifies as 1/3")
		if errs.Value() != before+1 {
			t.Fatalf("shard-1 errors %v -> %v, want one failed poll", before, errs.Value())
		}

		fakes[1].badMeta.Store(false)
		fakes[1].version.Add(1)
		c.pollAll()
		check("after the meta turned valid", true, fmt.Sprintf("version %d, %s", fakes[1].version.Load(), owned))
	}
}
