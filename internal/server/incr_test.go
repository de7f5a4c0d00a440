package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// incrConfig is testConfig with the incremental maintenance path enabled,
// the way cmd/graphd runs by default.
func incrConfig(vertices int32) Config {
	cfg := testConfig(vertices)
	cfg.Incremental = true
	return cfg
}

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

// TestIncrementalFreshnessAndCounters: on the incremental path, every
// applied edit batch — inserts and deletes — is visible to the next query,
// the first query pays the one full compute that seeds the state, and all
// subsequent queries advance it (server_incr_advances_total moves, the
// rebuild counter does not).
func TestIncrementalFreshnessAndCounters(t *testing.T) {
	cfg := incrConfig(64)
	s, ts := startServer(t, cfg)

	// Chain 0-1-2 plus the separate pair 4-5; vertex 3 starts isolated.
	updates := []IngestUpdate{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 4, Dst: 5}}
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
	postIngest(t, ts.URL, []IngestUpdate{{Src: 2, Dst: 3}})
	waitApplied(t, s, 4)
	if code := getJSON(t, ts.URL, "/query/component?v=3", &comp); code != 200 {
		t.Fatalf("component = %d, want 200", code)
	}
	if comp.Component != 0 || comp.Size != 4 || comp.NumComponents != 60 {
		t.Fatalf("after merge: %+v, want component 0 size 4 of 60", comp)
	}

	// Delete the bridge 1-2: the component splits into {0,1} and {2,3}.
	postIngest(t, ts.URL, []IngestUpdate{{Src: 1, Dst: 2, Delete: true}})
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

	var st Stats
	if code := getJSON(t, ts.URL, "/stats", &st); code != 200 || !st.Incremental {
		t.Fatalf("stats = %d %+v, want incremental=true", code, st)
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

// TestIncrementalMatchesRecompute runs the same randomized ingest stream —
// inserts, updates, and deletes — through a twin pair of servers, one
// incremental and one full-recompute, and asserts the query APIs agree
// after every round: identical component structure and top-k degree,
// PageRank within the convergence tolerance.
func TestIncrementalMatchesRecompute(t *testing.T) {
	const n = 128
	incrS, incrTS := startServer(t, incrConfig(n))
	fullS, fullTS := startServer(t, testConfig(n))

	rng := rand.New(rand.NewSource(7))
	var applied int64
	inserted := make([][2]int32, 0, 1024)
	for round := 0; round < 6; round++ {
		// Distinct normalized keys per round so in-batch dedup never drops
		// an edit and the applied counter stays predictable.
		seen := map[int64]bool{}
		var updates []IngestUpdate
		for len(updates) < 120 {
			var u IngestUpdate
			if round >= 2 && rng.Float64() < 0.3 && len(inserted) > 0 {
				e := inserted[rng.Intn(len(inserted))]
				u = IngestUpdate{Src: e[0], Dst: e[1], Delete: true}
			} else {
				a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
				if a == b {
					continue
				}
				u = IngestUpdate{Src: a, Dst: b, Weight: 1}
			}
			lo, hi := u.Src, u.Dst
			if lo > hi {
				lo, hi = hi, lo
			}
			key := int64(lo)<<32 | int64(hi)
			if seen[key] {
				continue
			}
			seen[key] = true
			if !u.Delete {
				inserted = append(inserted, [2]int32{u.Src, u.Dst})
			}
			updates = append(updates, u)
		}
		for _, ts := range []*httptest.Server{incrTS, fullTS} {
			if code, res, _ := postIngest(t, ts.URL, updates); code != http.StatusAccepted || res.Accepted != len(updates) {
				t.Fatalf("round %d ingest = %d %+v", round, code, res)
			}
		}
		applied += int64(len(updates))
		waitApplied(t, incrS, applied)
		waitApplied(t, fullS, applied)

		for v := 0; v < n; v += 7 {
			var a, b componentResp
			if code := getJSON(t, incrTS.URL, fmt.Sprintf("/query/component?v=%d", v), &a); code != 200 {
				t.Fatalf("round %d incr component v=%d: %d", round, v, code)
			}
			if code := getJSON(t, fullTS.URL, fmt.Sprintf("/query/component?v=%d", v), &b); code != 200 {
				t.Fatalf("round %d full component v=%d: %d", round, v, code)
			}
			if a.Component != b.Component || a.Size != b.Size || a.NumComponents != b.NumComponents {
				t.Fatalf("round %d component v=%d diverged: incr %+v vs full %+v", round, v, a, b)
			}
		}

		type scored struct {
			V     int32   `json:"V"`
			Score float64 `json:"Score"`
		}
		var topA, topB struct {
			Results []scored `json:"results"`
		}
		getJSON(t, incrTS.URL, "/query/topdegree?k=10", &topA)
		getJSON(t, fullTS.URL, "/query/topdegree?k=10", &topB)
		if len(topA.Results) != len(topB.Results) {
			t.Fatalf("round %d topdegree sizes diverged: %d vs %d", round, len(topA.Results), len(topB.Results))
		}
		for i := range topA.Results {
			if topA.Results[i] != topB.Results[i] {
				t.Fatalf("round %d topdegree[%d] diverged: %+v vs %+v", round, i, topA.Results[i], topB.Results[i])
			}
		}

		for _, v := range []int{0, 31, 97} {
			var pa, pb struct {
				Rank float64 `json:"rank"`
			}
			if code := getJSON(t, incrTS.URL, fmt.Sprintf("/query/pagerank?v=%d", v), &pa); code != 200 {
				t.Fatalf("round %d incr pagerank v=%d: %d", round, v, code)
			}
			if code := getJSON(t, fullTS.URL, fmt.Sprintf("/query/pagerank?v=%d", v), &pb); code != 200 {
				t.Fatalf("round %d full pagerank v=%d: %d", round, v, code)
			}
			if diff := math.Abs(pa.Rank - pb.Rank); diff > 1e-5 {
				t.Fatalf("round %d pagerank v=%d diverged by %g: %v vs %v", round, v, diff, pa.Rank, pb.Rank)
			}
		}
	}

	if got := counterSum(incrConfigRegistry(incrS), "server_incr_advances_total", ""); got < 1 {
		t.Errorf("incremental twin recorded no advances (%v) — the path under test never ran", got)
	}
}

// incrConfigRegistry recovers the registry a server was built with.
func incrConfigRegistry(s *Server) *telemetry.Registry { return s.reg }

// TestIncrementalCrashRecovery: a snapshot persisted while the server
// serves from incrementally-maintained state recovers into a structurally
// equivalent graph, and the recovered server answers the same queries with
// the same structure.
func TestIncrementalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := incrConfig(256)
	cfg.SnapshotPath = filepath.Join(dir, "graph.snap")
	cfg.SnapshotEvery = 0
	s, ts := startServer(t, cfg)

	// Two ingest/query rounds (the second with deletes) so the persisted
	// graph reflects state the incremental path has actually advanced over.
	var updates []IngestUpdate
	for v := int32(0); v < 255; v++ {
		updates = append(updates, IngestUpdate{Src: v, Dst: v + 1})
	}
	postIngest(t, ts.URL, updates)
	waitApplied(t, s, int64(len(updates)))
	if code := getJSON(t, ts.URL, "/query/component?v=0", nil); code != 200 {
		t.Fatalf("seed component query = %d", code)
	}
	round2 := []IngestUpdate{
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
	cfg := incrConfig(4096)
	s, ts := startServer(t, cfg)
	total := ingestClique(t, s, ts, 4096)

	// Seed the PageRank state with one full compute.
	if code := getJSON(t, ts.URL, "/query/pagerank?v=0&timeout=30s", nil); code != 200 {
		t.Fatalf("seed pagerank = %d, want 200", code)
	}
	churn := func(round int32) []IngestUpdate {
		var u []IngestUpdate
		for v := int32(0); v < 512; v++ {
			u = append(u, IngestUpdate{Src: v, Dst: (v + 9 + round) % 4096})
		}
		for v := 512 + 256*round; v < 768+256*round; v++ {
			u = append(u, IngestUpdate{Src: v, Dst: v + 1, Delete: true})
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
