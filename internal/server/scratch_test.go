package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
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

// TestRequestScratchHammer: results alias pooled per-request buffers until
// the response is encoded, so concurrent requests over both transports —
// single traversals and batches whose sub-results share one buffer, which
// later subs re-allocate under earlier ones — must each still get exactly
// the sequential kernel's answer. Run under -race.
func TestRequestScratchHammer(t *testing.T) {
	const vertices, workers, rounds = 1 << 10, 8, 200
	s, ts := startServer(t, testConfig(vertices))
	g := loadRMAT(t, s, 10)
	hops := make([][]int32, vertices)
	pairs := make([][]wire.JaccardPair, vertices)
	for v := int32(0); v < vertices; v++ {
		hops[v] = kernels.KHopNeighborhood(g, []int32{v}, 2)
		pairs[v] = wantPairs(g, v)
	}
	checkHop := func(what string, v int32, got *wire.KHopResult) error {
		if got.Count != len(hops[v]) || !slices.Equal(got.Vertices, hops[v]) {
			return fmt.Errorf("%s khop(%d): %d vertices, kernel has %d, or the order differs", what, v, len(got.Vertices), len(hops[v]))
		}
		return nil
	}
	checkPairs := func(what string, u int32, got *wire.JaccardResult) error {
		if got.U != u || !slices.Equal(got.Results, pairs[u]) {
			return fmt.Errorf("%s jaccard(%d): %d pairs, kernel has %d, or they differ", what, u, len(got.Results), len(pairs[u]))
		}
		return nil
	}
	// fetch GETs path (POSTs body when there is one) and decodes a 200 into
	// out; it returns errors, since it runs off the test's own goroutine.
	fetch := func(path string, body []byte, out any) error {
		get := func() (*http.Response, error) { return http.Get(ts.URL + path) }
		if body != nil {
			get = func() (*http.Response, error) {
				return http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			}
		}
		resp, err := get()
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
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

// TestTraversalReadAllocBudget: a khop or jaccard request must allocate
// nothing that scales with the graph or with its answer. Steady-state heap
// bytes per wire khop2 and per wire jaccard — the server's whole side of the
// exchange, request frame in to response payload out — are measured on
// R-MAT scale 10 and scale 13, an 8x larger graph whose answers are several
// times larger, and must agree within 1 KiB and stay under 8 KiB.
func TestTraversalReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads an R-MAT scale 13 graph")
	}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed, by design")
	}
	// sync.Pool keeps what it is handed per P: on one P a borrow always finds
	// the last return, so the count below is exact and repeats.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perOp := map[string][2]float64{}
	for i, scale := range []int{10, 13} {
		s, _ := startServer(t, testConfig(1<<scale))
		g := loadRMAT(t, s, scale)
		hubs := kernels.TopKByDegree(g, 64) // the largest answers the graph has
		var req wire.Request
		var frame, out []byte
		for _, name := range []string{"khop2", "jaccard"} {
			sweep := func() (respBytes int) {
				for _, h := range hubs {
					q := wire.Request{Op: wire.OpKHop, Seeds: []int32{h.V}, K: 2}
					if name == "jaccard" {
						q = wire.Request{Op: wire.OpJaccard, U: h.V}
					}
					frame = wire.AppendRequest(frame[:0], &q)
					out = s.wireRespond(frame, &req, out[:0])
					if out[0] != wire.StatusOK {
						t.Fatalf("%s(%d) at scale %d: status %d", name, h.V, scale, out[0])
					}
					respBytes += len(out)
				}
				return respBytes / len(hubs)
			}
			sweep() // every buffer on the path reaches its steady size
			// A collection empties the pools, as it is meant to; steady state
			// is what happens between two of them.
			gc := debug.SetGCPercent(-1)
			sweep()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp := sweep()
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			alloc := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(hubs))
			t.Logf("scale %d %s: %.0f B/op allocated, mean response %d B", scale, name, alloc, resp)
			if alloc > 8<<10 {
				t.Errorf("scale %d %s allocates %.0f B/op, budget 8 KiB", scale, name, alloc)
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
