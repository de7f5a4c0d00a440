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
	addrs := make([]string, count)
	for i := range fakes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		fs := &fakeShard{index: i, count: count, g: g, ln: ln}
		fs.wg.Add(1)
		go fs.accept()
		t.Cleanup(fs.stop)
		fakes[i], addrs[i] = fs, ln.Addr().String()
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
			Index: fs.index, Count: count, Vertices: n, Owned: OwnedCount(n, fs.index, fs.count), Version: fs.version.Load(), Ready: true,
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
	scr := &reqscratch.Scratch{}
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
	scr := &reqscratch.Scratch{}
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

// TestTraversalsMatchKernels: khop and jaccard over fake shards, as the
// front end calls them, equal the sequential kernels on the graph the
// shards serve.
func TestTraversalsMatchKernels(t *testing.T) {
	g := testGraph()
	c, _ := startFakeShards(t, g, 2)
	ctx := context.Background()
	scr := &reqscratch.Scratch{}
	for _, v := range []int32{0, 1, 2, 17, 100, g.NumVertices() - 1} {
		want := kernels.KHopNeighborhood(g, []int32{v}, 2)
		if got, err := c.KHop(ctx, scr, []int32{v}, 2); err != nil || !slices.Equal(got, want) {
			t.Fatalf("KHop(%d) = %v %v, kernel %v", v, got, err, want)
		}
		wantScores := kernels.JaccardFromVertex(g, v, 0)
		if got, err := c.Jaccard(ctx, scr, v, 0); err != nil || !slices.Equal(got, wantScores) {
			t.Fatalf("Jaccard(%d) = %v %v, kernel %v", v, got, err, wantScores)
		}
	}
}

// TestHTTPResultPoisonedAfterWrite: the front end resets a request's
// scratch once it has written the answer, so under go test a traversal
// result still held afterwards reads poison.
func TestHTTPResultPoisonedAfterWrite(t *testing.T) {
	g := testGraph()
	c, _ := startFakeShards(t, g, 2)
	hub := kernels.TopKByDegree(g, 1)[0].V
	ctx := context.Background()
	scr := &reqscratch.Scratch{}
	verts, err := c.KHop(ctx, scr, []int32{hub}, 2)
	if err != nil {
		t.Fatalf("KHop(%d): %v", hub, err)
	}
	scores, err := c.Jaccard(ctx, scr, hub, 0)
	if err != nil {
		t.Fatalf("Jaccard(%d): %v", hub, err)
	}
	scr.Reset()
	if len(verts) == 0 || slices.ContainsFunc(verts, func(v int32) bool { return v != -1 }) {
		t.Fatalf("khop result held past its scratch was not poisoned: %v", verts[:min(8, len(verts))])
	}
	if len(scores) == 0 || slices.ContainsFunc(scores, func(p kernels.JaccardPairScore) bool { return p.V != -1 || !math.IsNaN(p.Score) }) {
		t.Fatalf("jaccard result held past its scratch was not poisoned: %v", scores[:min(4, len(scores))])
	}
}
