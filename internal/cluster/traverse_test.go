package cluster

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/reqscratch"
	"repro/internal/wire"
)

// fakeShard is a wire-protocol shard over a fixed graph: it answers
// shard.meta as shard index of count, and shard.degrees, shard.wcc,
// shard.prstep and shard.adj from g's rows for the vertices it owns —
// refusing any other vertex's list, as graphd does — and records the
// vertices each shard.adj asked for. Every answer carries version. With
// short set it answers shard.adj with one list fewer than asked; with
// badMeta set its shard.meta claims one shard too many; while skews is
// positive a shard.prstep first bumps version, as an ingest batch landing
// mid-superstep would.
type fakeShard struct {
	index, count int
	g            *graph.Graph
	short        atomic.Bool
	badMeta      atomic.Bool
	skews        atomic.Int32
	version      atomic.Int64

	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
	asked [][]int32
}

// startFakeShards starts count fake shards over g and a coordinator in
// front of them; both are torn down when the test ends.
func startFakeShards(t *testing.T, g *graph.Graph, count int) (*Coordinator, []*fakeShard) {
	t.Helper()
	fakes := make([]*fakeShard, count)
	addrs := make([]ShardAddr, count)
	for i := range fakes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		fs := &fakeShard{index: i, count: count, g: g, ln: ln}
		fs.wg.Add(1)
		go fs.accept()
		t.Cleanup(fs.stop)
		fakes[i], addrs[i] = fs, ShardAddr{Wire: ln.Addr().String()}
	}
	c, err := New(Config{Vertices: g.NumVertices(), Shards: addrs, PollInterval: time.Hour})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	return c, fakes
}

// accept serves connections until the listener closes.
func (fs *fakeShard) accept() {
	defer fs.wg.Done()
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conns = append(fs.conns, conn)
		fs.mu.Unlock()
		fs.wg.Add(1)
		go fs.serve(conn)
	}
}

// stop closes the listener and every session and waits for them to end.
func (fs *fakeShard) stop() {
	fs.ln.Close()
	fs.mu.Lock()
	for _, c := range fs.conns {
		c.Close()
	}
	fs.mu.Unlock()
	fs.wg.Wait()
}

// serve runs one session: hello, then one answer per request frame.
func (fs *fakeShard) serve(conn net.Conn) {
	defer fs.wg.Done()
	bw := bufio.NewWriter(conn)
	if wire.WriteHello(bw) != nil || bw.Flush() != nil {
		return
	}
	if _, err := wire.ReadHello(conn); err != nil {
		return
	}
	fr := wire.NewFrameReader(conn, wire.MaxFrame)
	var req wire.Request
	for {
		frame, err := fr.Next()
		if err != nil {
			return
		}
		out := fs.answer(frame, &req)
		if wire.WriteFrame(bw, out) != nil || bw.Flush() != nil {
			return
		}
	}
}

// answer builds the response payload to one request frame.
func (fs *fakeShard) answer(frame []byte, req *wire.Request) []byte {
	if err := wire.DecodeRequest(frame, req); err != nil {
		return wire.AppendErrorResponse(nil, wire.StatusBadRequest, err.Error())
	}
	n := fs.g.NumVertices()
	out := []byte{wire.StatusOK}
	switch req.Op {
	case wire.OpShardMeta:
		count := fs.count
		if fs.badMeta.Load() {
			count++
		}
		return wire.AppendShardMeta(out, &wire.ShardMeta{
			Index: fs.index, Count: count, Vertices: n, Owned: OwnedCount(n, fs.index, fs.count), Version: fs.version.Load(),
		})
	case wire.OpShardDegrees:
		res := wire.ShardDegreesResult{Version: fs.version.Load()}
		for v := int32(0); v < n; v++ {
			if Owner(v, fs.count) == fs.index {
				res.Degrees = append(res.Degrees, int64(fs.g.Degree(v)))
			}
		}
		return wire.AppendShardDegreesResult(out, &res)
	case wire.OpShardWCC:
		var owned [][2]int32
		for u := int32(0); u < n; u++ {
			if Owner(u, fs.count) == fs.index {
				for _, nb := range fs.g.Neighbors(u) {
					owned = append(owned, [2]int32{u, nb})
				}
			}
		}
		labels := kernels.WCC(graph.FromEdges(n, fs.g.Directed(), owned)).Label
		return wire.AppendShardWCCResult(out, &wire.ShardWCCResult{Version: fs.version.Load(), Labels: labels})
	case wire.OpShardPRStep:
		if fs.skews.Add(-1) >= 0 {
			fs.version.Add(1)
		}
		contrib := make([]float64, n)
		for u := int32(0); u < n; u++ {
			if du := fs.g.Degree(u); du > 0 && Owner(u, fs.count) == fs.index {
				for _, nb := range fs.g.Neighbors(u) {
					contrib[nb] += req.Rank[u] / float64(du)
				}
			}
		}
		return wire.AppendShardPRStepResult(out, &wire.ShardPRStepResult{Version: fs.version.Load(), Contrib: contrib})
	case wire.OpShardAdj:
		fs.mu.Lock()
		fs.asked = append(fs.asked, slices.Clone(req.Seeds))
		fs.mu.Unlock()
		var res wire.ShardAdjResult
		res.Reset()
		want := req.Seeds
		if fs.short.Load() {
			want = want[:len(want)-1]
		}
		for _, v := range want {
			if v < 0 || v >= n || Owner(v, fs.count) != fs.index {
				return wire.AppendErrorResponse(nil, wire.StatusBadRequest, fmt.Sprintf("shard %d does not own vertex %d", fs.index, v))
			}
			res.AppendList(fs.g.Neighbors(v))
		}
		return wire.AppendShardAdjResult(out, &res)
	default:
		return wire.AppendErrorResponse(nil, wire.StatusBadRequest, "unsupported op "+wire.OpName(req.Op))
	}
}

// takeAsked returns and forgets what shard.adj has asked of fs.
func (fs *fakeShard) takeAsked() [][]int32 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	a := fs.asked
	fs.asked = nil
	return a
}

// ownedBy returns the first k vertices of [0, n) that shard owns.
func ownedBy(n int32, shard, shards, k int) []int32 {
	var out []int32
	for v := int32(0); v < n && len(out) < k; v++ {
		if Owner(v, shards) == shard {
			out = append(out, v)
		}
	}
	return out
}

// testGraph is the undirected R-MAT scale 8 graph the fake shards serve:
// hubs, leaves and isolated vertices, so lists of every length, zero
// included, cross the exchange.
func testGraph() *graph.Graph { return gen.RMAT(8, 4, gen.Graph500RMAT, 8, false) }

// TestAdjacencyReassemblyOrder: whichever shards a frontier spans, the
// coordinator asks each shard exactly for the vertices it owns, in frontier
// order, asks a shard that owns none nothing, and returns every list in
// the frontier's order.
func TestAdjacencyReassemblyOrder(t *testing.T) {
	g := testGraph()
	n := g.NumVertices()
	c, fakes := startFakeShards(t, g, 3)
	s0, s1, s2 := ownedBy(n, 0, 3, 4), ownedBy(n, 1, 3, 4), ownedBy(n, 2, 3, 4)
	cases := map[string][]int32{
		"empty":         {},
		"one shard":     {s1[2], s1[0], s1[3]},
		"two shards":    {s2[1], s0[0], s2[0], s0[3], s0[1]},
		"three shards":  {s0[2], s1[1], s2[3], s1[0], s0[0], s2[2], s1[3]},
		"duplicates":    {s2[0], s0[1], s2[0]},
		"isolated only": nil,
	}
	for v := int32(0); v < n && len(cases["isolated only"]) < 3; v++ {
		if g.Degree(v) == 0 {
			cases["isolated only"] = append(cases["isolated only"], v)
		}
	}
	scr := reqscratch.Get()
	defer reqscratch.Put(scr)
	for name, frontier := range cases {
		lists, err := c.adjacency(context.Background(), scr, frontier)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(lists) != len(frontier) {
			t.Fatalf("%s: %d lists for %d vertices", name, len(lists), len(frontier))
		}
		for i, v := range frontier {
			if !slices.Equal(lists[i], g.Neighbors(v)) {
				t.Fatalf("%s: list %d (vertex %d) = %v, want %v", name, i, v, lists[i], g.Neighbors(v))
			}
		}
		for _, fs := range fakes {
			var want []int32
			for _, v := range frontier {
				if Owner(v, 3) == fs.index {
					want = append(want, v)
				}
			}
			asked := fs.takeAsked()
			switch {
			case len(want) == 0 && len(asked) != 0:
				t.Fatalf("%s: shard %d owns none of the frontier but was asked %v", name, fs.index, asked)
			case len(want) != 0 && (len(asked) != 1 || !slices.Equal(asked[0], want)):
				t.Fatalf("%s: shard %d was asked %v, want one request for %v", name, fs.index, asked, want)
			}
		}
	}
}

// TestAdjacencyShortAnswer: a shard answering fewer lists than it was asked
// for fails the exchange with a 400 naming the shard — never a short or
// misaligned frontier — and the next exchange on the same scratch and
// connections is whole again.
func TestAdjacencyShortAnswer(t *testing.T) {
	g := testGraph()
	n := g.NumVertices()
	c, fakes := startFakeShards(t, g, 3)
	frontier := append(ownedBy(n, 0, 3, 2), ownedBy(n, 1, 3, 2)...)
	scr := reqscratch.Get()
	defer reqscratch.Put(scr)
	fakes[1].short.Store(true)
	_, err := c.adjacency(context.Background(), scr, frontier)
	if err == nil || wire.StatusOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "shard 1 returned 1 adjacency lists, want 2") {
		t.Fatalf("short answer: error %v (code %d), want a 400 naming shard 1", err, wire.StatusOf(err))
	}
	fakes[1].short.Store(false)
	lists, err := c.adjacency(context.Background(), scr, frontier)
	if err != nil {
		t.Fatalf("after the short answer: %v", err)
	}
	for i, v := range frontier {
		if !slices.Equal(lists[i], g.Neighbors(v)) {
			t.Fatalf("after the short answer: list %d = %v, want %v", i, lists[i], g.Neighbors(v))
		}
	}
}

// TestTraversalsMatchKernels: khop and jaccard over fake shards, through the
// Go API and through Run, the front end's call, equal the sequential
// kernels on the graph the shards serve.
func TestTraversalsMatchKernels(t *testing.T) {
	g := testGraph()
	c, _ := startFakeShards(t, g, 2)
	ctx := context.Background()
	run := func(req *wire.Request) any {
		t.Helper()
		scr := reqscratch.Get()
		defer reqscratch.Put(scr)
		out, err := c.Run(ctx, scr, req)
		if err != nil {
			t.Fatalf("Run(%+v): %v", req, err)
		}
		// Copied out before the scratch the answer aliases goes back.
		switch res := out.(type) {
		case *wire.KHopResult:
			return slices.Clone(res.Vertices)
		case *wire.JaccardResult:
			return slices.Clone(res.Results)
		}
		t.Fatalf("Run(%+v) answered %T", req, out)
		return nil
	}
	for _, v := range []int32{0, 1, 2, 17, 100, g.NumVertices() - 1} {
		want := kernels.KHopNeighborhood(g, []int32{v}, 2)
		got, err := c.KHop(ctx, []int32{v}, 2)
		if err != nil || !slices.Equal(got.Vertices, want) || got.Count != len(want) {
			t.Fatalf("KHop(%d): %+v, %v; kernel %v", v, got, err, want)
		}
		if viaRun := run(&wire.Request{Op: wire.OpKHop, Seeds: []int32{v}, K: 2}).([]int32); !slices.Equal(viaRun, want) {
			t.Fatalf("Run khop(%d) = %v, kernel %v", v, viaRun, want)
		}

		var wantPairs []wire.JaccardPair
		for _, p := range kernels.JaccardFromVertex(g, v, 0) {
			wantPairs = append(wantPairs, wire.JaccardPair{V: p.V, Score: p.Score, Inter: p.Inter})
		}
		jac, err := c.Jaccard(ctx, v, 0)
		if err != nil || !slices.Equal(jac.Results, wantPairs) {
			t.Fatalf("Jaccard(%d): %+v, %v; kernel %v", v, jac, err, wantPairs)
		}
		if viaRun := run(&wire.Request{Op: wire.OpJaccard, U: v}).([]wire.JaccardPair); !slices.Equal(viaRun, wantPairs) {
			t.Fatalf("Run jaccard(%d) = %v, kernel %v", v, viaRun, wantPairs)
		}
	}
}

// TestHTTPResultPoisonedAfterWrite: the front end puts a request's scratch
// back once it has written the answer, so under go test a Run result still
// held afterwards reads poison — and the Go API's results, which are the
// caller's, do not.
func TestHTTPResultPoisonedAfterWrite(t *testing.T) {
	g := testGraph()
	c, _ := startFakeShards(t, g, 2)
	hub := kernels.TopKByDegree(g, 1)[0].V
	var held []any
	for _, req := range []*wire.Request{
		{Op: wire.OpKHop, Seeds: []int32{hub}, K: 2},
		{Op: wire.OpJaccard, U: hub},
	} {
		scr := reqscratch.Get()
		out, err := c.Run(context.Background(), scr, req)
		if err != nil {
			t.Fatalf("Run(%+v): %v", req, err)
		}
		reqscratch.Put(scr)
		held = append(held, out)
	}
	// Checked before any other request can borrow the scratch back.
	for _, out := range held {
		switch res := out.(type) {
		case *wire.KHopResult:
			if len(res.Vertices) == 0 || slices.ContainsFunc(res.Vertices, func(v int32) bool { return v != -1 }) {
				t.Fatalf("khop result held past the wrapper was not poisoned: %v", res.Vertices[:min(8, len(res.Vertices))])
			}
		case *wire.JaccardResult:
			if len(res.Results) == 0 || slices.ContainsFunc(res.Results, func(p wire.JaccardPair) bool { return p.V != -1 || !math.IsNaN(p.Score) }) {
				t.Fatalf("jaccard result held past the wrapper was not poisoned: %v", res.Results[:min(4, len(res.Results))])
			}
		default:
			t.Fatalf("unexpected result %T", out)
		}
	}
	owned, err := c.KHop(context.Background(), []int32{hub}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.KHopNeighborhood(g, []int32{hub}, 2); !slices.Equal(owned.Vertices, want) {
		t.Fatal("the Go API's khop result was overwritten after the call returned")
	}
}
