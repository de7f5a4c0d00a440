package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The sharded differential suite: a graphctl-style coordinator over N
// in-process shard servers must answer exactly like one graphd holding the
// whole graph. WCC, k-hop, top-degree, and jaccard are required to be
// byte-identical; PageRank within tolerance (the superstep accumulation
// order differs). The kill/restart test exercises the cluster's failure
// modes: degraded /readyz, stale-serving global reads, surviving-shard
// point queries, ingest 503 with a retryable accepted prefix, and snapshot
// recovery + rejoin.

// testShard is one in-process shard: server and wire listener, the one
// channel the coordinator speaks to it on.
type testShard struct {
	s        *Server
	wireLn   net.Listener
	wireAddr string
}

// shardConfig is the test configuration of shard index of count over the
// given vertex space.
func shardConfig(vertices int32, index, count int) Config {
	cfg := testConfig(vertices)
	cfg.ShardIndex = index
	cfg.ShardCount = count
	return cfg
}

// startShard boots a shard configured by cfg with a wire listener on addr
// ("" = pick a port).
func startShard(t *testing.T, cfg Config, addr string) *testShard {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("shard %d: New: %v", cfg.ShardIndex, err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// A restarted shard rebinds its old port; give the kernel a moment to
	// release it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d: listen %s: %v", cfg.ShardIndex, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go func() { _ = s.ServeWire(ln) }()
	sh := &testShard{s: s, wireLn: ln, wireAddr: ln.Addr().String()}
	t.Cleanup(func() { sh.stop(t) })
	return sh
}

// stop tears the shard down gracefully (final snapshot included); safe to
// call twice.
func (sh *testShard) stop(t *testing.T) {
	t.Helper()
	if sh.s == nil {
		return
	}
	sh.wireLn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sh.s.Shutdown(ctx)
	sh.s = nil
}

// startCluster boots count shards plus a coordinator polling them fast, and
// returns the registry the coordinator and graphctl's front end share.
func startCluster(t *testing.T, vertices int32, count int) ([]*testShard, *cluster.Coordinator, *telemetry.Registry) {
	t.Helper()
	shards := make([]*testShard, count)
	for i := range shards {
		shards[i] = startShard(t, shardConfig(vertices, i, count), "")
	}
	coord, reg := startCoordinator(t, vertices, shards)
	return shards, coord, reg
}

// startCoordinator starts a coordinator over the shards' wire addresses,
// polling every 50ms, and returns it with its registry.
func startCoordinator(t *testing.T, vertices int32, shards []*testShard) (*cluster.Coordinator, *telemetry.Registry) {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, sh := range shards {
		addrs[i] = sh.wireAddr
	}
	reg := telemetry.NewRegistry()
	coord, err := cluster.New(cluster.Config{
		Vertices:     vertices,
		Shards:       addrs,
		Registry:     reg,
		PollInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, reg
}

// clusterEdits builds a deterministic edit stream with distinct (src, dst)
// pairs: one big quasi-random component, a separate three-vertex chain, a
// couple of deletes of never-inserted edges (routing no-ops), and isolated
// tail vertices.
func clusterEdits(vertices int32) []wire.IngestEdit {
	span := vertices - 16
	seen := make(map[[2]int32]bool)
	var edits []wire.IngestEdit
	for i := 0; i < 400; i++ {
		src := int32(i*7) % span
		dst := int32(i*13+1) % span
		if src == dst {
			dst = (dst + 1) % span
		}
		key := [2]int32{src, dst}
		if seen[key] || seen[[2]int32{dst, src}] {
			continue
		}
		seen[key] = true
		edits = append(edits, wire.IngestEdit{Src: src, Dst: dst, Weight: float32(i%5) + 1, Time: int64(i)})
	}
	a, b, c := vertices-10, vertices-9, vertices-8
	edits = append(edits,
		wire.IngestEdit{Src: a, Dst: b}, wire.IngestEdit{Src: b, Dst: c},
		wire.IngestEdit{Src: vertices - 7, Dst: vertices - 6, Delete: true},
	)
	return edits
}

// routedCounts computes how many edits the coordinator routes to each
// shard: one copy per distinct endpoint owner.
func routedCounts(edits []wire.IngestEdit, shards int) []int64 {
	counts := make([]int64, shards)
	for _, e := range edits {
		o1 := cluster.Owner(e.Src, shards)
		counts[o1]++
		if o2 := cluster.Owner(e.Dst, shards); o2 != o1 {
			counts[o2]++
		}
	}
	return counts
}

// ingestBoth feeds the same edits to the solo server (HTTP) and the
// coordinator (partitioned fan-out) and waits until every copy is applied.
func ingestBoth(t *testing.T, solo *Server, soloURL string, shards []*testShard, coord *cluster.Coordinator, edits []wire.IngestEdit, appliedBase []int64, soloBase int64) {
	t.Helper()
	code, res, _ := postIngest(t, soloURL, edits)
	if code != 202 || res.Accepted != len(edits) {
		t.Fatalf("solo ingest: code %d accepted %d", code, res.Accepted)
	}
	cres, ccode, err := coord.Ingest(edits, 5*time.Second)
	if err != nil || ccode != 202 || cres.Accepted != len(edits) {
		t.Fatalf("cluster ingest: code %d accepted %+v err %v", ccode, cres, err)
	}
	waitApplied(t, solo, soloBase+int64(len(edits)))
	for i, want := range routedCounts(edits, len(shards)) {
		waitApplied(t, shards[i].s, appliedBase[i]+want)
	}
}

// must returns v, panicking on err: for coordinator answers a test compares
// with.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// answerVia answers req through the front end's one answer path over fe's
// backend — graphd's published bundles, or a coordinator's shards — in a
// request trace of its own, and copies a traversal answer out of the
// request scratch before the trace finishes.
func answerVia[T any](ctx context.Context, fe *frontEnd, req wire.Request) (*T, error) {
	ctx, rt := fe.startTrace(ctx, telemetry.TraceContext{}, "test", time.Now())
	defer rt.finish(http.StatusOK, 0)
	out, err := fe.run(ctx, rt, &req)
	if err != nil {
		return nil, err
	}
	switch res := out.(type) {
	case *wire.KHopResult:
		res.Seeds, res.Vertices = slices.Clone(res.Seeds), slices.Clone(res.Vertices)
	case *wire.JaccardResult:
		res.Results = slices.Clone(res.Results)
	}
	res, ok := out.(*T)
	if !ok {
		return nil, fmt.Errorf("%s answered %T", wire.OpName(req.Op), out)
	}
	return res, nil
}

// answerBoth answers req through the one answer path over each backend:
// graphctl's coordinator (ctl) and standalone graphd (solo).
func answerBoth[T any](t *testing.T, ctx context.Context, ctl, solo *frontEnd, req wire.Request) (cluster, single *T) {
	t.Helper()
	cluster, err := answerVia[T](ctx, ctl, req)
	if err != nil {
		t.Fatalf("graphctl %s %+v: %v", wire.OpName(req.Op), req, err)
	}
	if single, err = answerVia[T](ctx, solo, req); err != nil {
		t.Fatalf("graphd %s %+v: %v", wire.OpName(req.Op), req, err)
	}
	return cluster, single
}

// mustComponentEqual compares a cluster component answer to solo's on every
// semantic field (Version is process-local and excluded by contract).
func mustComponentEqual(t *testing.T, what string, got, want *wire.ComponentResult) {
	t.Helper()
	if got.V != want.V || got.Component != want.Component || got.Size != want.Size || got.NumComponents != want.NumComponents {
		t.Fatalf("%s: cluster %+v != solo %+v", what, got, want)
	}
}

// TestIngestRejectsBadKeys: an edit whose endpoint key is missing,
// misspelled or in other case is a 400 naming the edit and the key, from
// graphd and from graphctl alike, and nothing of its body is applied: a
// good edit posted after them is the only one either side ever applies.
func TestIngestRejectsBadKeys(t *testing.T) {
	const vertices, shardCount = 16, 2
	solo, ts := startServer(t, testConfig(vertices))
	shards, coord, reg := startCluster(t, vertices, shardCount)
	ctl := httptest.NewServer(ClusterHandler(coord, reg))
	defer ctl.Close()
	for _, tc := range []struct{ body, want string }{
		{`[{"dst":5}]`, `edit 0: missing key "src"`},
		{`[{"src":1,"dst":2},{"source":1,"dest":2}]`, `edit 1: unknown key "source"`},
		{`[{"SRC":3,"Dst":4}]`, `edit 0: unknown key "SRC"`},
	} {
		for _, side := range []struct{ name, url string }{{"graphd", ts.URL}, {"graphctl", ctl.URL}} {
			resp, err := http.Post(side.url+"/ingest", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
				t.Errorf("%s: POST /ingest %s = %d %q, want 400 naming %q", side.name, tc.body, resp.StatusCode, raw, tc.want)
			}
		}
	}
	good := []wire.IngestEdit{{Src: 6, Dst: 7}}
	ingestBoth(t, solo, ts.URL, shards, coord, good, make([]int64, shardCount), 0)
	if n := solo.Applied(); n != 1 {
		t.Errorf("graphd applied %d edits, want only the good one", n)
	}
	for i, want := range routedCounts(good, shardCount) {
		if n := shards[i].s.Applied(); n != want {
			t.Errorf("shard %d applied %d edits, want %d", i, n, want)
		}
	}
}

// TestClusterDifferential is the sharded-vs-single differential: every
// query class answered by a 2-shard and a 3-shard cluster must match the
// standalone server on the same edit stream.
func TestClusterDifferential(t *testing.T) {
	for _, shardCount := range []int{2, 3} {
		shardCount := shardCount
		t.Run(map[int]string{2: "two-shards", 3: "three-shards"}[shardCount], func(t *testing.T) {
			const vertices = 80
			solo, ts := startServer(t, testConfig(vertices))
			shards, coord, reg := startCluster(t, vertices, shardCount)
			ctl := ClusterHandler(coord, reg)

			edits := clusterEdits(vertices)
			ingestBoth(t, solo, ts.URL, shards, coord, edits, make([]int64, shardCount), 0)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			t.Run("component", func(t *testing.T) {
				for v := int32(0); v < vertices; v++ {
					got, want := answerBoth[wire.ComponentResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpComponent, V: v})
					mustComponentEqual(t, "component", got, want)
				}
			})

			t.Run("khop", func(t *testing.T) {
				cases := []struct {
					seeds []int32
					k     int32
				}{
					{[]int32{0}, 1}, {[]int32{0}, 2}, {[]int32{0}, 3},
					{[]int32{1, 5, 9}, 2}, {[]int32{vertices - 10}, 4},
					{[]int32{3, 3, 7}, 1}, {[]int32{vertices - 1}, 2},
				}
				for _, tc := range cases {
					got, want := answerBoth[wire.KHopResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpKHop, Seeds: tc.seeds, K: tc.k})
					mustEqual(t, "khop", *got, *want)
				}
			})

			t.Run("topdegree", func(t *testing.T) {
				for _, k := range []int32{1, 5, 10, 25} {
					got, want := answerBoth[wire.TopDegreeResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpTopDegree, K: k})
					mustEqual(t, "topdegree", *got, *want)
				}
			})

			t.Run("jaccard", func(t *testing.T) {
				for _, u := range []int32{0, 1, 7, 33, vertices - 10, vertices - 1} {
					for _, th := range []float64{0, 0.2} {
						got, want := answerBoth[wire.JaccardResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpJaccard, U: u, Threshold: th})
						if got.U != want.U || len(got.Results) != len(want.Results) {
							t.Fatalf("jaccard(%d,%g): cluster %+v != solo %+v", u, th, got, want)
						}
						for i := range got.Results {
							if got.Results[i] != want.Results[i] {
								t.Fatalf("jaccard(%d,%g)[%d]: cluster %+v != solo %+v", u, th, i, got.Results[i], want.Results[i])
							}
						}
					}
				}
			})

			// graphctl serves through graphd's own front end: every endpoint,
			// malformed requests and batches included, must answer with
			// standalone graphd's status and bytes (Version excepted: the
			// cluster reports its summed shard versions), khop and jaccard
			// built in request scratch that goes back to the pool once the
			// JSON is written; a batch's sub-results share one scratch and
			// must not overwrite each other. PageRank agrees within
			// tolerance, as through the answer path.
			t.Run("http", func(t *testing.T) {
				ctlHTTP := httptest.NewServer(ctl)
				defer ctlHTTP.Close()
				versions := regexp.MustCompile(`"version":\d+`)
				// same returns graphctl's body for a GET (or, with a body, a
				// POST) of path after checking status and bytes against solo's.
				same := func(path, body string) []byte {
					t.Helper()
					fetch := func(base string) (int, []byte) {
						var resp *http.Response
						var err error
						if body == "" {
							resp, err = http.Get(base + path)
						} else {
							resp, err = http.Post(base+path, "application/json", strings.NewReader(body))
						}
						if err != nil {
							t.Fatalf("%s: %v", path, err)
						}
						defer resp.Body.Close()
						raw, err := io.ReadAll(resp.Body)
						if err != nil {
							t.Fatalf("%s: %v", path, err)
						}
						return resp.StatusCode, versions.ReplaceAll(raw, []byte(`"version":0`))
					}
					code, got := fetch(ctlHTTP.URL)
					soloCode, want := fetch(ts.URL)
					if code != soloCode || !bytes.Equal(got, want) {
						t.Fatalf("%s: graphctl %d %s != graphd %d %s", path, code, got, soloCode, want)
					}
					return got
				}
				for _, q := range []string{"v=0&k=1", "v=0&k=3", "seeds=1,5,9&k=2", "seeds=3,3,7&k=1", fmt.Sprintf("v=%d&k=4", vertices-10), fmt.Sprintf("v=%d", vertices-1)} {
					var got wire.KHopResult
					if err := json.Unmarshal(same("/query/khop?"+q, ""), &got); err != nil {
						t.Fatal(err)
					}
					api, err := answerVia[wire.KHopResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpKHop, Seeds: got.Seeds, K: got.K})
					if err != nil {
						t.Fatal(err)
					}
					mustEqual(t, "khop over HTTP vs the answer path", got, *api)
				}
				for _, u := range []int32{0, 1, 7, 33, vertices - 10, vertices - 1} {
					for _, th := range []float64{0, 0.2} {
						var got wire.JaccardResult
						if err := json.Unmarshal(same(fmt.Sprintf("/query/jaccard?u=%d&threshold=%g", u, th), ""), &got); err != nil {
							t.Fatal(err)
						}
						api, err := answerVia[wire.JaccardResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpJaccard, U: u, Threshold: th})
						if err != nil {
							t.Fatal(err)
						}
						if got.U != u || !slices.Equal(got.Results, api.Results) {
							t.Fatalf("jaccard(%d,%g) over HTTP %+v, answer path %+v", u, th, got, *api)
						}
					}
				}
				for _, path := range []string{
					"/query/component?v=0", "/query/component?v=33", fmt.Sprintf("/query/component?v=%d", vertices-1),
					"/query/topdegree", "/query/topdegree?k=5",
					// Malformed: parsing, range checks and the threshold rule.
					"/query/khop?v=abc", "/query/khop?v=1&k=-1", "/query/component?v=9999", "/query/component",
					"/query/jaccard?u=1&threshold=2", "/query/jaccard?u=1&threshold=NaN", "/query/topdegree?k=0",
					"/query/pagerank?timeout=nah", "/query/batch",
				} {
					same(path, "")
				}
				// Malformed bodies: one check, so one 400 body from both.
				for _, q := range []struct{ path, body string }{
					{"/query/batch", `{"queries":[{"op":"khop","v":1,"k":-1}]}`},
					{"/query/batch", `{"queries":[{"op":"khop"}]}`},
					{"/query/batch", `{"queries":[{"op":"khop","seeds":[9999],"k":-1}]}`},
					{"/ingest", `[{"src":1,"dst":2},{"src":9999,"dst":1}]`},
				} {
					same(q.path, q.body)
				}
				var batch struct {
					Results []struct {
						Status int             `json:"status"`
						Result json.RawMessage `json:"result"`
					} `json:"results"`
				}
				raw := same("/query/batch", `{"queries":[{"op":"khop","v":1,"k":2},{"op":"jaccard","u":7},{"op":"component","v":9999},{"op":"khop","seeds":[33,0],"k":3},{"op":"jaccard","u":1,"threshold":0.2}]}`)
				if err := json.Unmarshal(raw, &batch); err != nil || len(batch.Results) != 5 || batch.Results[2].Status != http.StatusBadRequest {
					t.Fatalf("batch: %v %s", err, raw)
				}
				wants := []any{
					must(answerVia[wire.KHopResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpKHop, Seeds: []int32{1}, K: 2})),
					must(answerVia[wire.JaccardResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpJaccard, U: 7})),
					nil,
					must(answerVia[wire.KHopResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpKHop, Seeds: []int32{33, 0}, K: 3})),
					must(answerVia[wire.JaccardResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpJaccard, U: 1, Threshold: 0.2})),
				}
				for i, want := range wants {
					if want == nil {
						continue
					}
					got := reflect.New(reflect.TypeOf(want).Elem())
					if err := json.Unmarshal(batch.Results[i].Result, got.Interface()); err != nil || !reflect.DeepEqual(got.Interface(), want) {
						t.Fatalf("batch item %d = %s, answer path %+v", i, batch.Results[i].Result, want)
					}
				}
				for _, path := range []string{"/query/pagerank?v=3", "/query/pagerank?k=4"} {
					var got, want wire.PageRankResult
					if getJSON(t, ctlHTTP.URL, path, &got) != http.StatusOK || getJSON(t, ts.URL, path, &want) != http.StatusOK {
						t.Fatalf("%s failed", path)
					}
					if got.Iterations != want.Iterations || len(got.Results) != len(want.Results) || (got.Rank == nil) != (want.Rank == nil) ||
						(got.Rank != nil && math.Abs(*got.Rank-*want.Rank) > 1e-9) {
						t.Fatalf("%s: graphctl %+v, graphd %+v", path, got, want)
					}
				}

				// One request path means one trace discipline: graphctl joins
				// the caller's trace, answers with its own root span as
				// parent-id, keeps the span tree at /debug/trace/{id}, and its
				// stages sum to each endpoint's wall time.
				code, echoed := getTraced(t, ctlHTTP.URL, "/query/khop?v=1&k=2", clientTraceparent)
				sent, _ := telemetry.ParseTraceparent(clientTraceparent)
				got, ok := telemetry.ParseTraceparent(echoed)
				if code != http.StatusOK || !ok || got.TraceID != sent.TraceID || got.Parent == sent.Parent {
					t.Fatalf("graphctl echoed %q (status %d) for %q", echoed, code, clientTraceparent)
				}
				var dump struct {
					Spans []struct {
						Name     string `json:"name"`
						Children []struct {
							Name string `json:"name"`
						} `json:"children"`
					} `json:"spans"`
				}
				if getJSON(t, ctlHTTP.URL, "/debug/trace/"+sent.TraceID.String(), &dump) != http.StatusOK || len(dump.Spans) != 1 || dump.Spans[0].Name != "server.khop" {
					t.Fatalf("graphctl /debug/trace: %+v", dump)
				}
				stages := map[string]bool{}
				for _, c := range dump.Spans[0].Children {
					stages[c.Name] = true
				}
				if !stages["stage.cluster"] || !stages["stage.encode"] {
					t.Fatalf("graphctl khop root has stages %v, want stage.cluster and stage.encode", stages)
				}
				for _, op := range []string{"khop", "jaccard", "component", "batch", "ingest"} {
					stageSum, wall := stageAndWallSums(reg, op)
					if wall == 0 || math.Abs(stageSum-wall) > 1e-6*wall {
						t.Errorf("graphctl %s: stages sum to %.9fs, wall %.9fs", op, stageSum, wall)
					}
				}
			})

			t.Run("pagerank", func(t *testing.T) {
				const tol = 1e-9
				soloRank := make(map[int32]float64)
				for v := int32(0); v < vertices; v++ {
					got, pr := answerBoth[wire.PageRankResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpPageRank, V: v, HasV: true})
					soloRank[v] = *pr.Rank
					if diff := math.Abs(*got.Rank - soloRank[v]); diff > tol {
						t.Fatalf("pagerank(%d): cluster %.12f vs solo %.12f (diff %g > %g)", v, *got.Rank, soloRank[v], diff, tol)
					}
				}
				top, soloTop := answerBoth[wire.PageRankResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpPageRank, K: 10})
				if top.K != soloTop.K || len(top.Results) != len(soloTop.Results) {
					t.Fatalf("pagerank top shape: cluster %+v != solo %+v", top, soloTop)
				}
				for i, sv := range top.Results {
					if i > 0 && top.Results[i-1].Score < sv.Score {
						t.Fatalf("pagerank top not descending at %d", i)
					}
					if diff := math.Abs(sv.Score - soloRank[sv.V]); diff > tol {
						t.Fatalf("pagerank top[%d] v=%d: %.12f vs solo %.12f", i, sv.V, sv.Score, soloRank[sv.V])
					}
				}
			})

			t.Run("readyz-and-stats", func(t *testing.T) {
				rd := coord.Readiness()
				if !rd.Ready || len(rd.Checks) != shardCount {
					t.Fatalf("cluster not ready with all shards up: %+v", rd)
				}
				st := coord.Stats()
				if st.Shards != shardCount || st.Ready != shardCount {
					t.Fatalf("stats: %+v", st)
				}
				var owned int64
				for _, si := range st.ShardInfo {
					owned += si.Owned
				}
				if owned != int64(vertices) {
					t.Fatalf("shards own %d of %d vertices", owned, vertices)
				}
			})
		})
	}
}

// TestJaccardThresholdRule: one threshold rule on every transport — graphd
// and graphctl over HTTP, their HTTP batch sub-queries, the wire protocol
// and its batch sub-queries, the answer path over the coordinator — a
// cutoff in [0, 1]
// answers, NaN and anything outside answer 400. JSON has no NaN or
// infinity, so HTTP batches carry the finite cases only.
func TestJaccardThresholdRule(t *testing.T) {
	const vertices = 80
	solo, ts := startServer(t, testConfig(vertices))
	shards, coord, reg := startCluster(t, vertices, 2)
	ingestBoth(t, solo, ts.URL, shards, coord, clusterEdits(vertices), make([]int64, 2), 0)
	ctl := ClusterHandler(coord, reg)
	ctlHTTP := httptest.NewServer(ctl)
	defer ctlHTTP.Close()
	c := startWire(t, solo)
	for _, tc := range []struct {
		raw  string
		th   float64
		want int
	}{
		{"0", 0, 200}, {"0.5", 0.5, 200}, {"1", 1, 200},
		{"-0.1", -0.1, 400}, {"1.5", 1.5, 400}, {"NaN", math.NaN(), 400}, {"Inf", math.Inf(1), 400}, {"-Inf", math.Inf(-1), 400},
	} {
		for name, base := range map[string]string{"graphd": ts.URL, "graphctl": ctlHTTP.URL} {
			if code := getJSON(t, base, "/query/jaccard?u=1&threshold="+tc.raw, nil); code != tc.want {
				t.Errorf("%s HTTP threshold=%s: %d, want %d", name, tc.raw, code, tc.want)
			}
			if math.IsInf(tc.th, 0) || math.IsNaN(tc.th) {
				continue
			}
			var batch struct {
				Results []batchItem `json:"results"`
			}
			body := fmt.Sprintf(`{"queries":[{"op":"jaccard","u":1,"threshold":%s}]}`, tc.raw)
			if err := fetchJSON(base+"/query/batch", []byte(body), &batch); err != nil || len(batch.Results) != 1 || batch.Results[0].Status != tc.want {
				t.Errorf("%s HTTP batch threshold=%s: %+v %v, want item %d", name, tc.raw, batch, err, tc.want)
			}
		}
		_, err := c.Jaccard(1, tc.th, time.Second)
		if got := wire.StatusOf(err); err != nil && got != tc.want || err == nil && tc.want != 200 {
			t.Errorf("wire threshold=%s: %v, want %d", tc.raw, err, tc.want)
		}
		items, err := c.Batch([]*wire.Request{{Op: wire.OpJaccard, U: 1, Threshold: tc.th}}, time.Second)
		if err != nil || wire.HTTPStatus(items[0].Status) != tc.want {
			t.Errorf("wire batch threshold=%s: %+v %v, want item %d", tc.raw, items, err, tc.want)
		}
		if _, err := answerVia[wire.JaccardResult](context.Background(), ctl.frontEnd, wire.Request{Op: wire.OpJaccard, U: 1, Threshold: tc.th}); (err == nil) != (tc.want == 200) {
			t.Errorf("coordinator threshold=%s: %v, want %d", tc.raw, err, tc.want)
		}
	}
}

// ownedVertex returns a vertex owned by the given shard.
func ownedVertex(t *testing.T, vertices int32, shard, shards int) int32 {
	t.Helper()
	for v := int32(0); v < vertices; v++ {
		if cluster.Owner(v, shards) == shard {
			return v
		}
	}
	t.Fatalf("no vertex owned by shard %d", shard)
	return -1
}

// TestClusterKillShard exercises the shard-down failure modes end to end:
// the coordinator's /readyz degrades, global reads serve the last cached
// answer, point queries on surviving shards still answer while queries
// needing the dead shard fail, ingest routed at the dead shard reports a
// retryable accepted prefix, and a restarted shard recovers from its flat
// snapshot and rejoins.
func TestClusterKillShard(t *testing.T) {
	const (
		vertices   = 80
		shardCount = 3
		victim     = 1
	)
	dir := t.TempDir()
	solo, ts := startServer(t, testConfig(vertices))
	// The victim gets a snapshot path to recover from.
	victimCfg := shardConfig(vertices, victim, shardCount)
	victimCfg.SnapshotPath = filepath.Join(dir, "victim.snap")
	shards := make([]*testShard, shardCount)
	for i := range shards {
		cfg := shardConfig(vertices, i, shardCount)
		if i == victim {
			cfg = victimCfg
		}
		shards[i] = startShard(t, cfg, "")
	}
	coord, reg := startCoordinator(t, vertices, shards)
	ctl := ClusterHandler(coord, reg)

	edits := clusterEdits(vertices)
	ingestBoth(t, solo, ts.URL, shards, coord, edits, make([]int64, shardCount), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Prime the coordinator's WCC cache and remember the pre-kill answer.
	probe := ownedVertex(t, vertices, 0, shardCount)
	preKill, err := answerVia[wire.ComponentResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpComponent, V: probe})
	if err != nil {
		t.Fatalf("component before kill: %v", err)
	}

	victimAddr := shards[victim].wireAddr
	shards[victim].stop(t)
	waitFor(t, 10*time.Second, "coordinator to notice the dead shard", func() bool { return !coord.Readiness().Ready })
	rd := coord.Readiness()
	for i, chk := range rd.Checks {
		if (i == victim) == chk.OK {
			t.Fatalf("readiness check %d after kill: %+v", i, rd)
		}
	}

	// Degraded global read: component serves the cached (stale) answer.
	stale, err := answerVia[wire.ComponentResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpComponent, V: probe})
	if err != nil {
		t.Fatalf("stale component: %v", err)
	}
	mustComponentEqual(t, "stale component", stale, preKill)

	// Surviving-shard point query: a 1-hop khop only touches the seed's
	// owner, so a seed owned by a live shard answers — and still matches
	// solo — while a seed owned by the dead shard fails.
	liveSeed := ownedVertex(t, vertices, 0, shardCount)
	got, want := answerBoth[wire.KHopResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpKHop, Seeds: []int32{liveSeed}, K: 1})
	mustEqual(t, "khop during outage", *got, *want)
	deadSeed := ownedVertex(t, vertices, victim, shardCount)
	if _, err := answerVia[wire.KHopResult](ctx, ctl.frontEnd, wire.Request{Op: wire.OpKHop, Seeds: []int32{deadSeed}, K: 1}); err == nil {
		t.Fatal("khop seeded at the dead shard should fail")
	}

	// Ingest with the dead shard in the route: the edits before the first
	// dead-routed edit are the accepted prefix; the client retries the
	// suffix after recovery.
	liveV2 := int32(-1)
	for v := int32(0); v < vertices; v++ {
		if cluster.Owner(v, shardCount) == 0 && v != liveSeed {
			liveV2 = v
			break
		}
	}
	deadV2 := int32(-1)
	for v := int32(0); v < vertices; v++ {
		if cluster.Owner(v, shardCount) == victim && v != deadSeed {
			deadV2 = v
			break
		}
	}
	outageEdits := []wire.IngestEdit{
		{Src: liveSeed, Dst: liveV2, Weight: 9, Time: 1000},
		{Src: deadSeed, Dst: deadV2, Weight: 9, Time: 1001},
	}
	res, code, err := coord.Ingest(outageEdits, 2*time.Second)
	if code != 503 || err == nil {
		t.Fatalf("ingest during outage: code %d res %+v err %v", code, res, err)
	}
	if res.Accepted != 1 || res.Rejected != 1 {
		t.Fatalf("ingest during outage prefix: %+v", res)
	}

	// Restart the victim at its old wire address from its final snapshot.
	victimCfg.Registry = telemetry.NewRegistry() // a new process's metrics
	shards[victim] = startShard(t, victimCfg, victimAddr)
	if !shards[victim].s.Recovered() {
		t.Fatal("restarted shard did not recover from snapshot")
	}
	waitFor(t, 10*time.Second, "restarted shard to rejoin", func() bool { return coord.Readiness().Ready })

	// Retry the rejected suffix, mirror the whole outage batch into solo,
	// and require the cluster to converge back to solo-identical answers.
	res, code, err = coord.Ingest(outageEdits[res.Accepted:], 5*time.Second)
	if err != nil || code != 202 || res.Accepted != 1 {
		t.Fatalf("retry after rejoin: code %d res %+v err %v", code, res, err)
	}
	soloUpdates := []wire.IngestEdit{
		{Src: outageEdits[0].Src, Dst: outageEdits[0].Dst, Weight: 9, Time: 1000},
		{Src: outageEdits[1].Src, Dst: outageEdits[1].Dst, Weight: 9, Time: 1001},
	}
	if code, _, _ := postIngest(t, ts.URL, soloUpdates); code != 202 {
		t.Fatalf("solo outage mirror: code %d", code)
	}
	waitApplied(t, solo, int64(len(edits)+2))
	waitApplied(t, shards[victim].s, 1)
	waitApplied(t, shards[0].s, routedCounts(edits, shardCount)[0]+1)

	khopGot, khopWant := answerBoth[wire.KHopResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpKHop, Seeds: []int32{deadSeed}, K: 2})
	mustEqual(t, "khop after rejoin", *khopGot, *khopWant)
	for _, v := range []int32{probe, deadSeed, liveV2} {
		gotC, wantC := answerBoth[wire.ComponentResult](t, ctx, ctl.frontEnd, &solo.frontEnd, wire.Request{Op: wire.OpComponent, V: v})
		mustComponentEqual(t, "component after rejoin", gotC, wantC)
	}
}
