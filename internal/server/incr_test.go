package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/kernels"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// counterSum adds up every counter sample matching name (and, when kernel
// is non-empty, the kernel label) on the test's private registry.
func counterSum(reg *telemetry.Registry, name, kernel string) float64 {
	total := 0.0
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		if kernel != "" {
			ok := false
			for _, l := range m.Labels {
				if l.Key == "kernel" && l.Value == kernel {
					ok = true
				}
			}
			if !ok {
				continue
			}
		}
		total += m.Value
	}
	return total
}

type componentResp struct {
	V             int32 `json:"v"`
	Component     int32 `json:"component"`
	Size          int64 `json:"size"`
	NumComponents int32 `json:"num_components"`
	Version       int64 `json:"version"`
}

// TestIncrementalFreshnessAndCounters: every applied edit batch — inserts
// and deletes — is visible to the next query, the first query pays the one
// full compute that seeds the state, and all subsequent queries advance it
// (server_incr_advances_total moves, the rebuild counter does not).
func TestIncrementalFreshnessAndCounters(t *testing.T) {
	cfg := testConfig(64)
	s, ts := startServer(t, cfg)

	// Chain 0-1-2 plus the separate pair 4-5; vertex 3 starts isolated.
	updates := []wire.IngestEdit{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 4, Dst: 5}}
	if code, res, _ := postIngest(t, ts.URL, updates); code != http.StatusAccepted || res.Accepted != len(updates) {
		t.Fatalf("ingest = %d %+v, want 202 all accepted", code, res)
	}
	waitApplied(t, s, 3)

	var comp componentResp
	if code := getJSON(t, ts.URL, "/query/component?v=0", &comp); code != 200 {
		t.Fatalf("component = %d, want 200", code)
	}
	if comp.Component != 0 || comp.Size != 3 || comp.NumComponents != 61 {
		t.Fatalf("after chain: %+v, want component 0 size 3 of 61", comp)
	}
	var top struct {
		Results []struct {
			V     int32   `json:"V"`
			Score float64 `json:"Score"`
		} `json:"results"`
	}
	if code := getJSON(t, ts.URL, "/query/topdegree?k=1", &top); code != 200 {
		t.Fatalf("topdegree = %d, want 200", code)
	}
	if len(top.Results) != 1 || top.Results[0].V != 1 || top.Results[0].Score != 2 {
		t.Fatalf("topdegree = %+v, want vertex 1 with degree 2", top.Results)
	}

	// Attach 3: the next component query must see the merge via an advance.
	postIngest(t, ts.URL, []wire.IngestEdit{{Src: 2, Dst: 3}})
	waitApplied(t, s, 4)
	if code := getJSON(t, ts.URL, "/query/component?v=3", &comp); code != 200 {
		t.Fatalf("component = %d, want 200", code)
	}
	if comp.Component != 0 || comp.Size != 4 || comp.NumComponents != 60 {
		t.Fatalf("after merge: %+v, want component 0 size 4 of 60", comp)
	}

	// Delete the bridge 1-2: the component splits into {0,1} and {2,3}.
	postIngest(t, ts.URL, []wire.IngestEdit{{Src: 1, Dst: 2, Delete: true}})
	waitApplied(t, s, 5)
	if code := getJSON(t, ts.URL, "/query/component?v=2", &comp); code != 200 {
		t.Fatalf("component = %d, want 200", code)
	}
	if comp.Component != 2 || comp.Size != 2 || comp.NumComponents != 61 {
		t.Fatalf("after delete: %+v, want component 2 size 2 of 61", comp)
	}
	if code := getJSON(t, ts.URL, "/query/component?v=0", &comp); code != 200 || comp.Size != 2 {
		t.Fatalf("after delete: v=0 code %d %+v, want size 2", code, comp)
	}

	reg := cfg.Registry
	if got := counterSum(reg, "server_cache_rebuilds_total", "wcc"); got != 1 {
		t.Errorf("wcc rebuilds = %v, want exactly 1 (the seeding compute)", got)
	}
	if got := counterSum(reg, "server_incr_advances_total", "wcc"); got < 2 {
		t.Errorf("wcc advances = %v, want >=2 (merge and delete queries)", got)
	}
	if got := counterSum(reg, "server_snapshot_patches_total", ""); got < 2 {
		t.Errorf("snapshot patches = %v, want >=2", got)
	}
	if got := counterSum(reg, "server_incr_fallbacks_total", ""); got != 0 {
		t.Errorf("incr fallbacks = %v, want 0 (delta log never overflowed)", got)
	}
}

// TestIncrementalMatchesRecompute runs a randomized ingest stream —
// inserts, updates, and deletes — through two servers and asserts after
// every round that their answers match the sequential kernels over a
// dyngraph fed the same edits: identical component structure and top-k
// degree, PageRank within the convergence tolerance. One server has the
// default MaxPendingEdits, so every build advances the incremental states
// over its window. The other's bound is one edit: each round lands as four
// separately applied batches, the writer publishes after the first two
// (readers were about) and not after the rest, so the round's window
// overflows and its reads take the full-recompute fallback.
func TestIncrementalMatchesRecompute(t *testing.T) {
	const n, rounds, perRound, chunks = 128, 6, 120, 4
	type twin struct {
		name string
		s    *Server
		ts   *httptest.Server
	}
	missCfg := testConfig(n)
	missCfg.MaxPendingEdits = 1
	var twins []twin
	for name, cfg := range map[string]Config{"advance": testConfig(n), "log miss": missCfg} {
		s, ts := startServer(t, cfg)
		twins = append(twins, twin{name, s, ts})
	}
	oracle := dyngraph.New(n, false)

	rng := rand.New(rand.NewSource(7))
	var applied int64
	inserted := make([][2]int32, 0, 1024)
	for round := 0; round < rounds; round++ {
		// Distinct normalized keys per round so in-batch dedup never drops
		// an edit and the applied counter stays predictable.
		seen := map[int64]bool{}
		var updates []wire.IngestEdit
		for len(updates) < perRound {
			var u wire.IngestEdit
			if round >= 2 && rng.Float64() < 0.3 && len(inserted) > 0 {
				e := inserted[rng.Intn(len(inserted))]
				u = wire.IngestEdit{Src: e[0], Dst: e[1], Delete: true}
			} else {
				a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
				if a == b {
					continue
				}
				u = wire.IngestEdit{Src: a, Dst: b, Weight: 1}
			}
			key := editKey(dyngraph.Edit{Src: u.Src, Dst: u.Dst}, false)
			if seen[key] {
				continue
			}
			seen[key] = true
			if !u.Delete {
				inserted = append(inserted, [2]int32{u.Src, u.Dst})
			}
			updates = append(updates, u)
			oracle.ApplyEdits([]dyngraph.Edit{{Src: u.Src, Dst: u.Dst, Weight: u.Weight, Delete: u.Delete}})
		}
		for c := 0; c < chunks; c++ {
			chunk := updates[c*perRound/chunks : (c+1)*perRound/chunks]
			applied += int64(len(chunk))
			for _, tw := range twins {
				if code, res, _ := postIngest(t, tw.ts.URL, chunk); code != http.StatusAccepted || res.Accepted != len(chunk) {
					t.Fatalf("%s: round %d ingest = %d %+v", tw.name, round, code, res)
				}
				waitApplied(t, tw.s, applied)
			}
		}

		g := oracle.Snapshot()
		cc := kernels.WCC(g)
		sizes := make([]int64, n)
		for _, l := range cc.Label {
			sizes[l]++
		}
		rank, _ := kernels.PageRank(g, kernels.DefaultPageRankOptions())
		top := kernels.TopKByDegree(g, 10)
		for _, tw := range twins {
			for v := int32(0); v < n; v += 7 {
				var got componentResp
				if code := getJSON(t, tw.ts.URL, fmt.Sprintf("/query/component?v=%d", v), &got); code != 200 {
					t.Fatalf("%s: round %d component v=%d: %d", tw.name, round, v, code)
				}
				if l := cc.Label[v]; got.Component != l || got.Size != sizes[l] || got.NumComponents != cc.NumComponents {
					t.Fatalf("%s: round %d component v=%d = %+v, kernel says component %d size %d of %d",
						tw.name, round, v, got, l, sizes[l], cc.NumComponents)
				}
			}

			var gotTop struct {
				Results []kernels.ScoredVertex `json:"results"`
			}
			getJSON(t, tw.ts.URL, "/query/topdegree?k=10", &gotTop)
			if !slices.Equal(gotTop.Results, top) {
				t.Fatalf("%s: round %d topdegree = %v, kernel %v", tw.name, round, gotTop.Results, top)
			}

			for _, v := range []int{0, 31, 97} {
				var pr struct {
					Rank float64 `json:"rank"`
				}
				if code := getJSON(t, tw.ts.URL, fmt.Sprintf("/query/pagerank?v=%d", v), &pr); code != 200 {
					t.Fatalf("%s: round %d pagerank v=%d: %d", tw.name, round, v, code)
				}
				if diff := math.Abs(pr.Rank - rank[v]); diff > 1e-5 {
					t.Fatalf("%s: round %d pagerank v=%d off by %g: %v, kernel %v", tw.name, round, v, diff, pr.Rank, rank[v])
				}
			}
		}
	}

	for _, tw := range twins {
		advances := counterSum(tw.s.reg, "server_incr_advances_total", "")
		fallbacks := counterSum(tw.s.reg, "server_incr_fallbacks_total", "")
		t.Logf("%s: %v advances, %v fallbacks", tw.name, advances, fallbacks)
		switch {
		case tw.name == "advance" && (advances < 1 || fallbacks != 0):
			t.Errorf("%s: %v advances and %v fallbacks, want advances only", tw.name, advances, fallbacks)
		case tw.name == "log miss" && fallbacks < 3*(rounds-1):
			t.Errorf("%s: %v fallbacks, want every kernel to miss the log every round after the first (%d)", tw.name, fallbacks, 3*(rounds-1))
		}
	}
}

// TestIncrementalCrashRecovery: a snapshot persisted while the server
// serves from incrementally-maintained state recovers into a structurally
// equivalent graph, and the recovered server answers the same queries with
// the same structure.
func TestIncrementalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(256)
	cfg.SnapshotPath = filepath.Join(dir, "graph.snap")
	cfg.SnapshotEvery = 0
	s, ts := startServer(t, cfg)

	// Two ingest/query rounds (the second with deletes) so the persisted
	// graph reflects state the incremental path has actually advanced over.
	var updates []wire.IngestEdit
	for v := int32(0); v < 255; v++ {
		updates = append(updates, wire.IngestEdit{Src: v, Dst: v + 1})
	}
	postIngest(t, ts.URL, updates)
	waitApplied(t, s, int64(len(updates)))
	if code := getJSON(t, ts.URL, "/query/component?v=0", nil); code != 200 {
		t.Fatalf("seed component query = %d", code)
	}
	round2 := []wire.IngestEdit{
		{Src: 100, Dst: 101, Delete: true},
		{Src: 200, Dst: 201, Delete: true},
		{Src: 0, Dst: 255},
	}
	postIngest(t, ts.URL, round2)
	waitApplied(t, s, int64(len(updates)+len(round2)))
	var before componentResp
	if code := getJSON(t, ts.URL, "/query/component?v=0", &before); code != 200 {
		t.Fatalf("component query = %d", code)
	}
	if got := counterSum(cfg.Registry, "server_incr_advances_total", "wcc"); got < 1 {
		t.Fatalf("wcc advances = %v, want >=1 before shutdown", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	if !s2.Recovered() {
		t.Fatal("second server did not recover from the snapshot")
	}
	assertEquivalentGraphs(t, s.dyn, s2.dyn)

	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var after componentResp
	if code := getJSON(t, ts2.URL, "/query/component?v=0", &after); code != 200 {
		t.Fatalf("recovered component query = %d", code)
	}
	if after.Component != before.Component || after.Size != before.Size || after.NumComponents != before.NumComponents {
		t.Fatalf("recovered server diverged: %+v vs %+v", after, before)
	}
}

// TestIncrementalDeadline504CancelsAdvance: on the incremental path the
// advance runs in the writer's catch-up build, and a deadline ends only the
// reader's wait for it. A read after an unread batch waits for the build,
// an expiring ?timeout= answers 504, and the build still completes — par
// records no cancellation, nothing falls back to a full recompute — so the
// follow-up query is served from that one advance. (The name predates
// writer-built bundles, when the advance ran on the request and the
// deadline cancelled it.)
func TestIncrementalDeadline504CancelsAdvance(t *testing.T) {
	cfg := testConfig(4096)
	s, ts := startServer(t, cfg)
	total := ingestClique(t, s, ts, 4096)

	// Seed the PageRank state with one full compute.
	if code := getJSON(t, ts.URL, "/query/pagerank?v=0&timeout=30s", nil); code != 200 {
		t.Fatalf("seed pagerank = %d, want 200", code)
	}
	churn := func(round int32) []wire.IngestEdit {
		var u []wire.IngestEdit
		for v := int32(0); v < 512; v++ {
			u = append(u, wire.IngestEdit{Src: v, Dst: (v + 9 + round) % 4096})
		}
		for v := 512 + 256*round; v < 768+256*round; v++ {
			u = append(u, wire.IngestEdit{Src: v, Dst: v + 1, Delete: true})
		}
		return u
	}
	// Churn with nobody reading: the writer publishes the first batch or two
	// (readers were about a bundle ago), then applies the rest unread, so
	// the next read must wait for a catch-up build.
	for round := int32(0); s.StatsNow().SnapshotVersion == s.Version(); round++ {
		if round == 4 {
			t.Fatalf("still publishing every batch after %d unread churn batches: %+v", round, s.StatsNow())
		}
		batch := churn(round)
		if code, res, _ := postIngest(t, ts.URL, batch); code != http.StatusAccepted || res.Accepted != len(batch) {
			t.Fatalf("churn ingest = %d %+v", code, res)
		}
		total += int64(len(batch))
		waitApplied(t, s, total)
	}

	before := par.TotalsSnapshot()
	advBefore := counterSum(cfg.Registry, "server_incr_advances_total", "pagerank")
	resp, err := http.Get(ts.URL + "/query/pagerank?timeout=200us")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL, "/query/pagerank?v=0&timeout=30s", nil); code != 200 {
		t.Fatalf("follow-up pagerank = %d, want 200", code)
	}
	if d := par.TotalsSnapshot().Sub(before); d.Cancellations != 0 || d.SkippedChunks != 0 {
		t.Fatalf("the deadline cancelled the writer's build: %+v", d)
	}
	if got := counterSum(cfg.Registry, "server_incr_advances_total", "pagerank"); got != advBefore+1 {
		t.Fatalf("pagerank advances went %v -> %v, want the one catch-up advance the 504 started", advBefore, got)
	}
	if got := counterSum(cfg.Registry, "server_incr_fallbacks_total", ""); got != 0 {
		t.Fatalf("incr fallbacks = %v, want 0", got)
	}
}
