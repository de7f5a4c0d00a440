package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// loadRMAT preloads s with the distinct edges of an undirected R-MAT graph
// and returns the snapshot graphd then serves, the graph every expected
// answer below is computed on.
func loadRMAT(tb testing.TB, s *Server, scale int) *graph.Graph {
	tb.Helper()
	preloadRMAT(tb, s, scale)
	return publishedGraph(tb, s)
}

// preloadRMAT is loadRMAT without pinning the result.
func preloadRMAT(tb testing.TB, s *Server, scale int) {
	tb.Helper()
	src := gen.RMAT(scale, 8, gen.Graph500RMAT, int64(scale), false)
	var edits []dyngraph.Edit
	for u := int32(0); u < src.NumVertices(); u++ {
		for _, v := range src.Neighbors(u) {
			if u < v {
				edits = append(edits, dyngraph.Edit{Src: u, Dst: v, Weight: 1})
			}
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for sent := 0; sent < len(edits); {
		sent += s.enqueue(edits[sent:min(sent+1024, len(edits))]).Accepted
		if time.Now().After(deadline) {
			tb.Fatal("preload was not accepted")
		}
	}
	for s.Applied() < int64(len(edits)) {
		if time.Now().After(deadline) {
			tb.Fatal("preload did not drain")
		}
		time.Sleep(time.Millisecond)
	}
}

// publishedGraph returns the graph graphd serves at its visible version,
// pinned until the test ends.
func publishedGraph(tb testing.TB, s *Server) *graph.Graph {
	tb.Helper()
	b, err := s.acquire(context.Background(), nil, partGraph)
	if err != nil {
		tb.Fatalf("pin the published bundle: %v", err)
	}
	tb.Cleanup(b.unpin)
	return b.parts[partGraph].g
}

// wantPairs is the sequential kernel's jaccard answer in wire form.
func wantPairs(g *graph.Graph, u int32) []wire.JaccardPair {
	out := []wire.JaccardPair{}
	for _, p := range kernels.JaccardFromVertex(g, u, 0) {
		out = append(out, wire.JaccardPair{V: p.V, Score: p.Score, Inter: p.Inter})
	}
	return out
}

// traversalOracle holds the sequential kernels' khop (k=2) and jaccard
// answers for every vertex of a graph.
type traversalOracle struct {
	hops  [][]int32
	pairs [][]wire.JaccardPair
}

func newTraversalOracle(g *graph.Graph) *traversalOracle {
	n := g.NumVertices()
	o := &traversalOracle{hops: make([][]int32, n), pairs: make([][]wire.JaccardPair, n)}
	for v := int32(0); v < n; v++ {
		o.hops[v] = kernels.KHopNeighborhood(g, []int32{v}, 2)
		o.pairs[v] = wantPairs(g, v)
	}
	return o
}

// checkHop compares a khop(v, 2) answer with the kernel's.
func (o *traversalOracle) checkHop(what string, v int32, got *wire.KHopResult) error {
	if got.Count != len(o.hops[v]) || !slices.Equal(got.Vertices, o.hops[v]) {
		return fmt.Errorf("%s khop(%d): %d vertices, kernel has %d, or the order differs", what, v, len(got.Vertices), len(o.hops[v]))
	}
	return nil
}

// checkPairs compares a jaccard(u) answer with the kernel's.
func (o *traversalOracle) checkPairs(what string, u int32, got *wire.JaccardResult) error {
	if got.U != u || !slices.Equal(got.Results, o.pairs[u]) {
		return fmt.Errorf("%s jaccard(%d): %d pairs, kernel has %d, or they differ", what, u, len(got.Results), len(o.pairs[u]))
	}
	return nil
}

// fetchJSON GETs url (POSTs body when there is one) and decodes a 200 into
// out; it returns errors, since hammers run it off the test's goroutine.
func fetchJSON(url string, body []byte, out any) error {
	get := func() (*http.Response, error) { return http.Get(url) }
	if body != nil {
		get = func() (*http.Response, error) { return http.Post(url, "application/json", bytes.NewReader(body)) }
	}
	resp, err := get()
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestRequestScratchHammer: results alias pooled per-request buffers until
// the response is encoded, so concurrent requests over both transports —
// single traversals and batches whose sub-results share one buffer, which
// later subs re-allocate under earlier ones — must each still get exactly
// the sequential kernel's answer. Run under -race.
func TestRequestScratchHammer(t *testing.T) {
	const vertices, workers, rounds = 1 << 10, 8, 200
	s, ts := startServer(t, testConfig(vertices))
	o := newTraversalOracle(loadRMAT(t, s, 10))
	checkHop, checkPairs := o.checkHop, o.checkPairs
	fetch := func(path string, body []byte, out any) error { return fetchJSON(ts.URL+path, body, out) }
	// One batch shape for both transports: 16 subs, three khops among them so
	// the first khop's sub-slice must survive two later appends, jaccards
	// between them, and cached lookups filling the rest.
	batchOps := func(i int32) (khop [3]int32, jac [2]int32) {
		return [3]int32{i % vertices, (i * 7) % vertices, (i * 13) % vertices}, [2]int32{(i * 3) % vertices, (i * 5) % vertices}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := startWire(t, s)
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			d := 10 * time.Second
			for r := int32(0); r < rounds; r++ {
				v := (w*rounds + r*37) % vertices
				err := func() error {
					switch r % 6 {
					case 0:
						got, err := c.KHop([]int32{v}, 2, d)
						if err != nil {
							return err
						}
						return checkHop("wire", v, got)
					case 1:
						got, err := c.Jaccard(v, 0, d)
						if err != nil {
							return err
						}
						return checkPairs("wire", v, got)
					case 2:
						var got wire.KHopResult
						if err := fetch(fmt.Sprintf("/query/khop?v=%d&k=2", v), nil, &got); err != nil {
							return err
						}
						return checkHop("HTTP", v, &got)
					case 3:
						var got wire.JaccardResult
						if err := fetch(fmt.Sprintf("/query/jaccard?u=%d", v), nil, &got); err != nil {
							return err
						}
						return checkPairs("HTTP", v, &got)
					case 4:
						kh, jc := batchOps(v)
						subs := make([]*wire.Request, 16)
						for i := range subs {
							subs[i] = &wire.Request{Op: wire.OpComponent, V: int32(i)}
						}
						subs[0] = &wire.Request{Op: wire.OpKHop, Seeds: []int32{kh[0]}, K: 2}
						subs[3] = &wire.Request{Op: wire.OpJaccard, U: jc[0]}
						subs[7] = &wire.Request{Op: wire.OpKHop, Seeds: []int32{kh[1]}, K: 2}
						subs[9] = &wire.Request{Op: wire.OpJaccard, U: jc[1]}
						subs[15] = &wire.Request{Op: wire.OpKHop, Seeds: []int32{kh[2]}, K: 2}
						items, err := c.Batch(subs, d)
						if err != nil {
							return err
						}
						for i, it := range items {
							if it.Status != wire.StatusOK {
								return fmt.Errorf("wire batch sub %d: status %d: %s", i, it.Status, it.Err)
							}
						}
						return firstErr(
							checkHop("wire batch", kh[0], items[0].Result.(*wire.KHopResult)),
							checkPairs("wire batch", jc[0], items[3].Result.(*wire.JaccardResult)),
							checkHop("wire batch", kh[1], items[7].Result.(*wire.KHopResult)),
							checkPairs("wire batch", jc[1], items[9].Result.(*wire.JaccardResult)),
							checkHop("wire batch", kh[2], items[15].Result.(*wire.KHopResult)))
					default:
						kh, jc := batchOps(v)
						queries := make([]map[string]any, 16)
						for i := range queries {
							queries[i] = map[string]any{"op": "component", "v": i}
						}
						queries[0] = map[string]any{"op": "khop", "v": kh[0], "k": 2}
						queries[3] = map[string]any{"op": "jaccard", "u": jc[0]}
						queries[7] = map[string]any{"op": "khop", "v": kh[1], "k": 2}
						queries[9] = map[string]any{"op": "jaccard", "u": jc[1]}
						queries[15] = map[string]any{"op": "khop", "v": kh[2], "k": 2}
						body, _ := json.Marshal(map[string]any{"queries": queries})
						var got struct {
							Results []struct {
								Status int             `json:"status"`
								Result json.RawMessage `json:"result"`
							} `json:"results"`
						}
						if err := fetch("/query/batch", body, &got); err != nil || len(got.Results) != 16 {
							return fmt.Errorf("HTTP batch: %d results, error %v", len(got.Results), err)
						}
						var errs []error
						for i, kv := range map[int]int32{0: kh[0], 7: kh[1], 15: kh[2]} {
							var res wire.KHopResult
							errs = append(errs, json.Unmarshal(got.Results[i].Result, &res), checkHop("HTTP batch", kv, &res))
						}
						for i, ju := range map[int]int32{3: jc[0], 9: jc[1]} {
							var res wire.JaccardResult
							errs = append(errs, json.Unmarshal(got.Results[i].Result, &res), checkPairs("HTTP batch", ju, &res))
						}
						return firstErr(errs...)
					}
				}()
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(int32(w))
	}
	wg.Wait()
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wireBytes returns the steady-state heap bytes the whole process allocates
// per request while s answers frames through wireRespond — the server's
// whole side of a wire exchange, request frame in to response payload out —
// and the mean response size. sync.Pool keeps what it is handed per P, so
// at GOMAXPROCS(1), where a borrow always finds the last return, the count
// is exact and repeats.
func wireBytes(t *testing.T, s *Server, frames [][]byte) (alloc float64, meanResp int) {
	t.Helper()
	var req wire.Request
	var out []byte
	sweep := func() (respBytes int) {
		for _, frame := range frames {
			if out = s.wireRespond(frame, &req, out[:0]); out[0] != wire.StatusOK {
				t.Fatalf("%s: status %d", wire.OpName(frame[0]), out[0])
			}
			respBytes += len(out)
		}
		return respBytes / len(frames)
	}
	sweep() // every buffer on the path reaches its steady size
	// A collection empties the pools, as it is meant to; steady state is what
	// happens between two of them.
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	meanResp = sweep()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(frames)), meanResp
}

// hubFrames encodes the request q(v) for each of g's 64 highest-degree
// vertices, the largest answers the graph has.
func hubFrames(g *graph.Graph, q func(v int32) wire.Request) [][]byte {
	var frames [][]byte
	for _, hub := range kernels.TopKByDegree(g, 64) {
		req := q(hub.V)
		frames = append(frames, wire.AppendRequest(nil, &req))
	}
	return frames
}

// TestTraversalReadAllocBudget: a khop or jaccard request must allocate
// nothing — not its trace, its deadline, its spans, its answer, nor
// anything that scales with the graph or with that answer. Steady-state
// heap bytes per wire khop2 and per wire jaccard are measured on R-MAT
// scale 10 and scale 13, an 8x larger graph whose answers are several times
// larger, and must be 0 on both.
func TestTraversalReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads an R-MAT scale 13 graph")
	}
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, scale := range []int{10, 13} {
		s, _ := startServer(t, testConfig(1<<scale))
		g := loadRMAT(t, s, scale)
		for name, q := range map[string]func(v int32) wire.Request{
			"khop2":   func(v int32) wire.Request { return wire.Request{Op: wire.OpKHop, Seeds: []int32{v}, K: 2} },
			"jaccard": func(v int32) wire.Request { return wire.Request{Op: wire.OpJaccard, U: v} },
		} {
			alloc, resp := wireBytes(t, s, hubFrames(g, q))
			t.Logf("scale %d %s: %.0f B/op allocated, mean response %d B", scale, name, alloc, resp)
			if alloc > 0 {
				t.Errorf("scale %d %s allocates %.0f B/op, want none", scale, name, alloc)
			}
		}
	}
}

// TestWireReadAllocationFree: with tracing on — the enabled registry every
// server runs with — a wire component, single-vertex pagerank or topdegree
// answer allocates nothing: its trace identity, deadline, root and stage
// spans, stage accounting, answer struct and top-k selection all live in
// the pooled request trace. Steady-state heap bytes per request are
// measured over R-MAT scale 10's 64 hubs.
func TestWireReadAllocationFree(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testConfig(1 << 10)
	if cfg.Registry.Tracer() == nil {
		t.Fatal("the test registry records no spans")
	}
	s, _ := startServer(t, cfg)
	g := loadRMAT(t, s, 10)
	for _, tc := range []struct {
		name string
		q    func(v int32) wire.Request
	}{
		{"component", func(v int32) wire.Request { return wire.Request{Op: wire.OpComponent, V: v} }},
		{"pagerank(v)", func(v int32) wire.Request { return wire.Request{Op: wire.OpPageRank, HasV: true, V: v} }},
		{"topdegree", func(int32) wire.Request { return wire.Request{Op: wire.OpTopDegree} }},
	} {
		alloc, resp := wireBytes(t, s, hubFrames(g, tc.q))
		t.Logf("wire %s: %.0f B/op allocated, mean response %d B", tc.name, alloc, resp)
		if alloc > 0 {
			t.Errorf("wire %s allocates %.0f B/op, want none", tc.name, alloc)
		}
	}
	if n := len(cfg.Registry.Tracer().Snapshot()); n == 0 {
		t.Fatal("the measured requests recorded no spans")
	}
}

// TestResultPoisonedAfterFinish: a request's results alias its scratch until
// the request trace finishes, so under go test a khop, jaccard or shard.adj
// answer held past finish reads poison, not a later request's answer.
func TestResultPoisonedAfterFinish(t *testing.T) {
	s, _ := startServer(t, testConfig(1<<8))
	g := loadRMAT(t, s, 8)
	hub := kernels.TopKByDegree(g, 1)[0].V
	rt := s.startTrace(context.Background(), telemetry.TraceContext{}, "test", time.Now())
	answer := func(req wire.Request) any {
		out, err := s.run(rt, rt, &req)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	kh := answer(wire.Request{Op: wire.OpKHop, Seeds: []int32{hub}, K: 2}).(*wire.KHopResult)
	jc := answer(wire.Request{Op: wire.OpJaccard, U: hub}).(*wire.JaccardResult)
	adj := answer(wire.Request{Op: wire.OpShardAdj, Seeds: []int32{hub}}).(*wire.ShardAdjResult)
	if len(kh.Vertices) == 0 || len(jc.Results) == 0 || len(adj.Targets) == 0 {
		t.Fatalf("hub %d has empty answers: %d, %d, %d", hub, len(kh.Vertices), len(jc.Results), len(adj.Targets))
	}
	rt.finish(http.StatusOK, 0)
	if slices.ContainsFunc(kh.Vertices, func(v int32) bool { return v != -1 }) {
		t.Error("khop result held past finish was not poisoned")
	}
	if slices.ContainsFunc(jc.Results, func(p wire.JaccardPair) bool { return p.V != -1 || !math.IsNaN(p.Score) }) {
		t.Error("jaccard result held past finish was not poisoned")
	}
	if slices.ContainsFunc(adj.Targets, func(v int32) bool { return v != -1 }) {
		t.Error("shard.adj answer held past finish was not poisoned")
	}
}

// keepEdits is a backend that admits every edit and keeps the slice the
// front end handed it, as a backend that forgot to copy would.
type keepEdits struct {
	backend
	kept []wire.IngestEdit
}

func (k *keepEdits) ingest(_ *reqTrace, edits []wire.IngestEdit) (*wire.IngestResult, int, error) {
	k.kept = edits
	return &wire.IngestResult{Accepted: len(edits)}, http.StatusAccepted, nil
}

// TestIngestEditsPoisonedAfterResponse: the edits an ingest request decodes
// live in its scratch, so a backend that keeps them past the response reads
// poison, not the next request's edits.
func TestIngestEditsPoisonedAfterResponse(t *testing.T) {
	reg := telemetry.NewRegistry()
	fe := &frontEnd{vertices: 8, reg: reg, slow: newSlowLog(0, nil, reg)}
	keep := &keepEdits{}
	fe.back = keep
	rec := httptest.NewRecorder()
	body := bytes.NewBufferString(`[{"src":1,"dst":2,"weight":2,"time":5},{"src":3,"dst":4}]`)
	fe.handler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", body))
	if rec.Code != http.StatusAccepted || len(keep.kept) != 2 {
		t.Fatalf("ingest = %d %s with %d edits kept, want 202 and 2", rec.Code, rec.Body, len(keep.kept))
	}
	for i, e := range keep.kept {
		if e.Src != -1 || e.Dst != -1 || e.Time != -1 || !math.IsNaN(float64(e.Weight)) {
			t.Errorf("edit %d kept past the response reads %+v, want poison", i, e)
		}
	}
}

// loadCluster starts two shards and a coordinator that does not poll them,
// and ingests the distinct edges of an undirected R-MAT graph through the
// coordinator. It returns graphctl's HTTP handler over the coordinator and
// the graph every expected answer is computed on.
func loadCluster(t *testing.T, scale int) (http.Handler, *graph.Graph) {
	t.Helper()
	const shardCount = 2
	src := gen.RMAT(scale, 8, gen.Graph500RMAT, int64(scale), false)
	n := src.NumVertices()
	shards := make([]*testShard, shardCount)
	addrs := make([]string, shardCount)
	for i := range shards {
		shards[i] = startShard(t, shardConfig(n, i, shardCount), "")
		addrs[i] = shards[i].wireAddr
	}
	reg := telemetry.NewRegistry()
	coord, err := cluster.New(cluster.Config{Vertices: n, Shards: addrs, Registry: reg, PollInterval: time.Hour})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(coord.Close)
	var edits []wire.IngestEdit
	for u := int32(0); u < n; u++ {
		for _, v := range src.Neighbors(u) {
			if u < v {
				edits = append(edits, wire.IngestEdit{Src: u, Dst: v, Weight: 1})
			}
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for sent := 0; sent < len(edits); {
		res, _, err := coord.Ingest(edits[sent:min(sent+1024, len(edits))], 5*time.Second)
		if err != nil {
			t.Fatalf("cluster ingest: %v", err)
		}
		if sent += res.Accepted; time.Now().After(deadline) {
			t.Fatal("cluster preload was not accepted")
		}
	}
	for i, want := range routedCounts(edits, shardCount) {
		waitApplied(t, shards[i].s, want)
	}
	return ClusterHandler(coord, reg), src
}

// TestCoordinatorScratchHammer: the coordinator builds khop and jaccard
// answers in pooled request scratch — its own for the reassembled lists and
// the answer, each shard's for the shard.adj answers it gathers — so eight
// concurrent clients mixing khop, jaccard and component through its HTTP
// handler must each still get exactly the sequential kernels' answers. Run
// under -race.
func TestCoordinatorScratchHammer(t *testing.T) {
	const workers, rounds = 8, 60
	h, g := loadCluster(t, 9)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	o := newTraversalOracle(g)
	cc := kernels.WCC(g)
	sizes := map[int32]int64{}
	for _, l := range cc.Label {
		sizes[l]++
	}
	n := g.NumVertices()
	var wg sync.WaitGroup
	for w := int32(0); w < workers; w++ {
		wg.Add(1)
		go func(w int32) {
			defer wg.Done()
			for r := int32(0); r < rounds; r++ {
				v := (w*rounds + r*37) % n
				var err error
				switch r % 3 {
				case 0:
					var got wire.KHopResult
					if err = fetchJSON(fmt.Sprintf("%s/query/khop?v=%d&k=2", ts.URL, v), nil, &got); err == nil {
						err = o.checkHop("coordinator", v, &got)
					}
				case 1:
					var got wire.JaccardResult
					if err = fetchJSON(fmt.Sprintf("%s/query/jaccard?u=%d", ts.URL, v), nil, &got); err == nil {
						err = o.checkPairs("coordinator", v, &got)
					}
				default:
					var got wire.ComponentResult
					err = fetchJSON(fmt.Sprintf("%s/query/component?v=%d", ts.URL, v), nil, &got)
					if lab := cc.Label[v]; err == nil && (got.Component != lab || got.Size != sizes[lab] || got.NumComponents != cc.NumComponents) {
						err = fmt.Errorf("component(%d) = %+v, kernel label %d size %d of %d", v, got, lab, sizes[lab], cc.NumComponents)
					}
				}
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// discardWriter is a ResponseWriter that keeps only the status and reuses
// its header map, so measuring a handler counts the handler's bytes.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// skipUnderRace skips an allocation budget under the race detector, where
// sync.Pool drops a quarter of what it is handed, by design.
func skipUnderRace(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed, by design")
	}
}

// handlerBytes returns the steady-state heap bytes the whole process
// allocates per request while h serves GETs of paths, one sweep after
// another. The requests' context can be cancelled, as net/http's can, so a
// handler that hooks its parent's cancellation pays for it here. Run it at
// GOMAXPROCS(1), where a pool borrow finds the last return, so the count is
// exact and repeats.
func handlerBytes(t *testing.T, h http.Handler, paths []string) float64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqs := make([]*http.Request, len(paths))
	for i, path := range paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	}
	w := &discardWriter{h: http.Header{}}
	sweep := func() {
		for _, r := range reqs {
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", r.URL, w.code)
			}
		}
	}
	// Every buffer on the path reaches its steady size, in every scratch the
	// coordinator and the shards pass between them.
	sweep()
	sweep()
	// A collection empties the pools, as it is meant to; steady state is what
	// happens between two of them.
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	sweep()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs))
}

// hubPaths returns the path of format for each of g's 64 highest-degree
// vertices, the largest answers the graph has.
func hubPaths(g *graph.Graph, format string) []string {
	var paths []string
	for _, hub := range kernels.TopKByDegree(g, 64) {
		paths = append(paths, fmt.Sprintf(format, hub.V))
	}
	return paths
}

// TestCoordinatorTraversalAllocBudget: a khop2 or jaccard through the
// coordinator must allocate nothing that scales with the graph or with its
// answer — not in the coordinator, which reassembles the shards' flat
// answers in request scratch, and not in the shards. Steady-state heap
// bytes per request through graphctl's HTTP handler, counting the whole
// process (front end, coordinator, wire clients, both shards' wire
// sessions), are measured over two shards on R-MAT scale 10 and scale 13,
// an 8x larger graph whose answers are several times larger, and must agree
// within 1 KiB and stay under 320 B for khop2 and 460 B for jaccard: the
// echoed traceparent and each shard exchange's fan-out are what is left.
func TestCoordinatorTraversalAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads an R-MAT scale 13 graph through a cluster")
	}
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	budget := map[string]float64{"khop2": 320, "jaccard": 460}
	perOp := map[string][2]float64{}
	for i, scale := range []int{10, 13} {
		h, g := loadCluster(t, scale)
		for name, format := range map[string]string{"khop2": "/query/khop?v=%d&k=2", "jaccard": "/query/jaccard?u=%d"} {
			alloc := handlerBytes(t, h, hubPaths(g, format))
			t.Logf("scale %d %s through the coordinator: %.0f B/op allocated", scale, name, alloc)
			if alloc > budget[name] {
				t.Errorf("scale %d %s allocates %.0f B/op, budget %.0f B", scale, name, alloc, budget[name])
			}
			row := perOp[name]
			row[i] = alloc
			perOp[name] = row
		}
	}
	for name, row := range perOp {
		if diff := row[1] - row[0]; diff > 1<<10 || diff < -(1<<10) {
			t.Errorf("%s: %.0f B/op at scale 10, %.0f at scale 13: the difference scales with the graph", name, row[0], row[1])
		}
	}
}

// TestFrontEndAllocBudget: the HTTP front end graphd and graphctl share —
// query parsing, trace identity, deadline, root and stage spans, stage
// accounting, encoding, request metrics — must stay light. Steady-state
// heap bytes per /query/component over R-MAT scale 10's 64 hubs are
// measured through graphd's handler, budget 80 B (the echoed traceparent
// is the one allocation), and through graphctl's, counting the whole
// process (front end, coordinator, wire clients and both shards' shard.meta
// sessions), budget 220 B.
func TestFrontEndAllocBudget(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, _ := startServer(t, testConfig(1<<10))
	g := loadRMAT(t, s, 10)
	ctl, _ := loadCluster(t, 10)
	paths := hubPaths(g, "/query/component?v=%d")
	for _, tc := range []struct {
		name   string
		h      http.Handler
		budget float64
	}{{"graphd", s.Handler(), 80}, {"graphctl", ctl, 220}} {
		alloc := handlerBytes(t, tc.h, paths)
		t.Logf("%s HTTP component: %.0f B/request allocated", tc.name, alloc)
		if alloc > tc.budget {
			t.Errorf("%s HTTP component allocates %.0f B/request, budget %.0f", tc.name, alloc, tc.budget)
		}
	}
}
