package server

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// benchServer stands up a served graph with both listeners for the
// protocol-overhead benchmarks: a ring with chord distances 1..4 over 1<<10
// vertices, quiescent during measurement.
func benchServer(b *testing.B) (*Server, string, string) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Vertices = 1 << 10
	cfg.QueueCap = 1 << 14
	cfg.FlushEvery = time.Millisecond
	cfg.Registry = telemetry.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Shutdown(b.Context()) })

	n := cfg.Vertices
	var total int64
	for v := int32(0); v < n; v++ {
		for d := int32(1); d <= 4; d++ {
			res := s.enqueue([]dyngraph.Edit{{Src: v, Dst: (v + d) % n, Weight: 1}})
			if res.Accepted != 1 {
				b.Fatalf("preload enqueue rejected at v=%d", v)
			}
			total++
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Applied() < total {
		if time.Now().After(deadline) {
			b.Fatal("preload did not drain")
		}
		time.Sleep(time.Millisecond)
	}

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(httpLn)
	b.Cleanup(func() { hs.Close() })

	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.ServeWire(wireLn)
	b.Cleanup(func() { wireLn.Close() })

	return s, httpLn.Addr().String(), wireLn.Addr().String()
}

// BenchmarkWireComponent measures one component query per wire frame:
// the binary protocol's end-to-end per-request cost (client encode, server
// dispatch, kernel lookup, response decode).
func BenchmarkWireComponent(b *testing.B) {
	_, _, wireAddr := benchServer(b)
	c, err := wire.Dial(wireAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Component(0, time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Component(int32(i)%(1<<10), time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireKHop2 measures one 2-hop neighbourhood query per wire frame.
// B/op covers both ends of the in-process connection: the server's share is
// held flat by TestTraversalReadAllocBudget, the rest is the client decoding
// the answer into a fresh result.
func BenchmarkWireKHop2(b *testing.B) {
	_, _, wireAddr := benchServer(b)
	c, err := wire.Dial(wireAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	seeds := make([]int32, 1)
	if _, err := c.KHop(seeds, 2, time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seeds[0] = int32(i) % (1 << 10)
		if _, err := c.KHop(seeds, 2, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireJaccard measures one per-vertex Jaccard query per wire frame;
// B/op as for BenchmarkWireKHop2.
func BenchmarkWireJaccard(b *testing.B) {
	_, _, wireAddr := benchServer(b)
	c, err := wire.Dial(wireAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Jaccard(0, 0, time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Jaccard(int32(i)%(1<<10), 0, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPComponent is the same query over the JSON API — the
// baseline BenchmarkWireComponent's alloc reduction is judged against.
func BenchmarkHTTPComponent(b *testing.B) {
	_, httpAddr, _ := benchServer(b)
	hc := &http.Client{Timeout: time.Second}
	get := func(v int32) error {
		resp, err := hc.Get(fmt.Sprintf("http://%s/query/component?v=%d", httpAddr, v))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := get(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := get(int32(i) % (1 << 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireBatchComponent measures 16 component queries per frame —
// the amortized batching path.
func BenchmarkWireBatchComponent(b *testing.B) {
	_, _, wireAddr := benchServer(b)
	c, err := wire.Dial(wireAddr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	subs := make([]*wire.Request, 16)
	for i := range subs {
		subs[i] = &wire.Request{Op: wire.OpComponent, V: int32(i * 37 % (1 << 10))}
	}
	if _, err := c.Batch(subs, time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := c.Batch(subs, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if it.Status != wire.StatusOK {
				b.Fatalf("sub status %d: %s", it.Status, it.Err)
			}
		}
	}
}
