package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/telemetry"
	"repro/internal/wire"
	"repro/internal/wire/snapfmt"
)

// startWire attaches a wire listener to s and returns a connected client.
func startWire(t *testing.T, s *Server) *wire.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = s.ServeWire(ln) }()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("wire dial: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		ln.Close()
	})
	return c
}

// getRaw GETs path and returns the raw body and status.
func getRaw(t *testing.T, url, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// mustEqual fails unless got and want are deeply equal.
func mustEqual(t *testing.T, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: wire answer %+v != JSON answer %+v", what, got, want)
	}
}

// TestWireHTTPEquivalence is the differential twin-request test: the same
// graph queried over both protocols must yield identical decoded answers —
// the JSON body unmarshaled into the shared result struct equals the
// binary-decoded struct, field for field.
func TestWireHTTPEquivalence(t *testing.T) {
	s, ts := startServer(t, testConfig(64))
	c := startWire(t, s)
	d := 5 * time.Second

	// Ingest over the wire protocol; HTTP queries must see it.
	edits := []wire.IngestEdit{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 2, Weight: 2.5, Time: 99}, {Src: 5, Dst: 6},
	}
	res, err := c.Ingest(edits, d)
	if err != nil {
		t.Fatalf("wire ingest: %v", err)
	}
	if res.Accepted != len(edits) || res.Rejected != 0 {
		t.Fatalf("wire ingest accepted %d rejected %d", res.Accepted, res.Rejected)
	}
	waitApplied(t, s, int64(len(edits)))

	t.Run("jaccard", func(t *testing.T) {
		got, err := c.Jaccard(1, 0, d)
		if err != nil {
			t.Fatal(err)
		}
		var want wire.JaccardResult
		code, body := getRaw(t, ts.URL, "/query/jaccard?u=1")
		if code != 200 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "jaccard", *got, want)
	})

	t.Run("khop", func(t *testing.T) {
		got, err := c.KHop([]int32{0, 5}, 2, d)
		if err != nil {
			t.Fatal(err)
		}
		var want wire.KHopResult
		code, body := getRaw(t, ts.URL, "/query/khop?seeds=0,5&k=2")
		if code != 200 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "khop", *got, want)
	})

	t.Run("topdegree", func(t *testing.T) {
		got, err := c.TopDegree(3, d)
		if err != nil {
			t.Fatal(err)
		}
		var want wire.TopDegreeResult
		code, body := getRaw(t, ts.URL, "/query/topdegree?k=3")
		if code != 200 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "topdegree", *got, want)
	})

	t.Run("component", func(t *testing.T) {
		got, err := c.Component(6, d)
		if err != nil {
			t.Fatal(err)
		}
		var want wire.ComponentResult
		code, body := getRaw(t, ts.URL, "/query/component?v=6")
		if code != 200 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "component", *got, want)
	})

	t.Run("pagerank vertex", func(t *testing.T) {
		got, err := c.PageRankVertex(0, d)
		if err != nil {
			t.Fatal(err)
		}
		var want wire.PageRankResult
		code, body := getRaw(t, ts.URL, "/query/pagerank?v=0")
		if code != 200 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "pagerank vertex", *got, want)
	})

	t.Run("pagerank topk", func(t *testing.T) {
		got, err := c.PageRankTop(4, d)
		if err != nil {
			t.Fatal(err)
		}
		var want wire.PageRankResult
		code, body := getRaw(t, ts.URL, "/query/pagerank?k=4")
		if code != 200 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "pagerank topk", *got, want)
	})

	t.Run("stats", func(t *testing.T) {
		raw, err := c.Stats(d)
		if err != nil {
			t.Fatal(err)
		}
		var got, want Stats
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		code, body := getRaw(t, ts.URL, "/stats")
		if code != 200 {
			t.Fatalf("HTTP %d: %s", code, body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if got.Vertices != want.Vertices || got.Edges != want.Edges ||
			got.Arcs != want.Arcs || got.Version != want.Version {
			t.Fatalf("stats differ: wire %+v http %+v", got, want)
		}
	})

	t.Run("error equivalence", func(t *testing.T) {
		_, err := c.Component(9999, d)
		var se *wire.StatusError
		if !errors.As(err, &se) {
			t.Fatalf("wire error = %v, want StatusError", err)
		}
		code, body := getRaw(t, ts.URL, "/query/component?v=9999")
		if se.Status != wire.StatusBadRequest || code != 400 {
			t.Fatalf("statuses differ: wire %d http %d", se.Status, code)
		}
		if !strings.Contains(string(body), se.Msg) {
			t.Fatalf("messages differ: wire %q http %q", se.Msg, body)
		}
	})

	if err := c.Ping(d); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

// TestWireBatchEquivalence: the same mixed batch over both protocols must
// answer each item identically, including per-item errors.
func TestWireBatchEquivalence(t *testing.T) {
	s, ts := startServer(t, testConfig(32))
	c := startWire(t, s)
	d := 5 * time.Second

	if _, err := c.Ingest([]wire.IngestEdit{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 4, Dst: 5},
	}, d); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, s, 4)

	subs := []*wire.Request{
		{Op: wire.OpComponent, V: 1},
		{Op: wire.OpJaccard, U: 0},
		{Op: wire.OpKHop, Seeds: []int32{0}, K: 2},
		{Op: wire.OpTopDegree, K: 3},
		{Op: wire.OpPageRank, K: 3},
		{Op: wire.OpComponent, V: 31000}, // out of range: per-item 400
	}
	items, err := c.Batch(subs, d)
	if err != nil {
		t.Fatalf("wire batch: %v", err)
	}

	httpBody := `{"queries":[
		{"op":"component","v":1},
		{"op":"jaccard","u":0},
		{"op":"khop","seeds":[0],"k":2},
		{"op":"topdegree","k":3},
		{"op":"pagerank","k":3},
		{"op":"component","v":31000}
	]}`
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", strings.NewReader(httpBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("HTTP batch status %d", resp.StatusCode)
	}
	var httpRes struct {
		Count   int `json:"count"`
		Results []struct {
			Status int             `json:"status"`
			Result json.RawMessage `json:"result"`
			Err    string          `json:"error"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&httpRes); err != nil {
		t.Fatal(err)
	}
	if httpRes.Count != len(subs) || len(items) != len(subs) {
		t.Fatalf("counts: wire %d http %d want %d", len(items), httpRes.Count, len(subs))
	}

	for i, item := range items {
		h := httpRes.Results[i]
		if wire.HTTPStatus(item.Status) != h.Status {
			t.Fatalf("item %d: wire status %d http %d", i, wire.HTTPStatus(item.Status), h.Status)
		}
		if item.Status != wire.StatusOK {
			if item.Err != h.Err {
				t.Fatalf("item %d: wire err %q http %q", i, item.Err, h.Err)
			}
			continue
		}
		// Decode the HTTP result into the same struct type the wire client
		// produced and compare.
		want := reflect.New(reflect.TypeOf(item.Result).Elem()).Interface()
		if err := json.Unmarshal(h.Result, want); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if !reflect.DeepEqual(item.Result, want) {
			t.Fatalf("item %d: wire %+v != http %+v", i, item.Result, want)
		}
	}
}

// TestWireMalformedFrameKeepsSession: a garbage request frame answers
// StatusBadRequest without killing the connection.
func TestWireMalformedFrameKeepsSession(t *testing.T) {
	s, _ := startServer(t, testConfig(8))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = s.ServeWire(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteHello(conn); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadHello(conn); err != nil {
		t.Fatal(err)
	}
	fr := wire.NewFrameReader(conn, 0)

	// Op byte for jaccard with a truncated body.
	if err := wire.WriteFrame(conn, []byte{wire.OpJaccard, 0x00}); err != nil {
		t.Fatal(err)
	}
	payload, err := fr.Next()
	if err != nil {
		t.Fatalf("read error response: %v", err)
	}
	if len(payload) == 0 || payload[0] != wire.StatusBadRequest {
		t.Fatalf("malformed frame answered status %v", payload[:1])
	}

	// The session must still serve a valid request.
	if err := wire.WriteFrame(conn, []byte{wire.OpPing, 0x00}); err != nil {
		t.Fatal(err)
	}
	payload, err = fr.Next()
	if err != nil || len(payload) != 1 || payload[0] != wire.StatusOK {
		t.Fatalf("ping after bad frame: payload=%v err=%v", payload, err)
	}
}

// TestWireShutdownClosesSessions: Shutdown force-closes live wire sessions
// and new connections are refused.
func TestWireShutdownClosesSessions(t *testing.T) {
	cfg := testConfig(8)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	defer ln.Close()
	go func() { _ = s.ServeWire(ln) }()
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(time.Second); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := c.Ping(time.Second); err == nil {
		t.Fatal("ping succeeded after shutdown closed the session")
	}
}

// ingestAndDrain starts a server at path, applies the edits, shuts down
// (persisting a flat snapshot), and returns the final stats.
func ingestAndDrain(t *testing.T, cfg Config, edits []dyngraph.Edit) Stats {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edits {
		res := s.enqueue([]dyngraph.Edit{e})
		if res.Accepted != 1 {
			t.Fatalf("enqueue rejected %+v", e)
		}
	}
	waitApplied(t, s, int64(len(edits)))
	st := s.StatsNow()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	return st
}

// TestFlatSnapshotRecovery: restart after a flat-format persist recovers
// the graph with recovered=true, a pre-seeded snapshot, and identical
// query answers.
func TestFlatSnapshotRecovery(t *testing.T) {
	cfg := testConfig(32)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "snap.gsnf")
	edits := []dyngraph.Edit{
		{Src: 0, Dst: 1, Weight: 2, Time: 7}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 5, Dst: 5},
	}
	before := ingestAndDrain(t, cfg, edits)

	flat, err := snapfmt.SniffFile(cfg.SnapshotPath)
	if err != nil || !flat {
		t.Fatalf("persisted snapshot not flat format: %v %v", flat, err)
	}

	cfg2 := cfg
	cfg2.Registry = testConfig(32).Registry
	s2, err := New(cfg2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	if !s2.Recovered() {
		t.Fatal("Recovered() = false after flat recovery")
	}
	after := s2.StatsNow()
	// The flat format persists the built CSR view, which drops self-loops
	// (5,5 above, stored as one arc): the recovered arc count matches the
	// served snapshot, one short of the live structure's.
	if after.Arcs != before.Arcs-1 || after.Edges != before.Edges {
		t.Fatalf("recovered %d arcs / %d edges, want %d / %d",
			after.Arcs, after.Edges, before.Arcs-1, before.Edges)
	}
	// The snapshot is pre-seeded: the first query must not rebuild.
	got, err := s2.runComponent(direct(t, s2, context.Background()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 2 {
		t.Fatalf("component(4) size %d, want 2", got.Size)
	}
	if n := s2.cfg.Registry.Counter("server_snapshot_rebuilds_total").Value(); n != 0 {
		t.Fatalf("first query after flat recovery did %v CSR rebuilds, want 0", n)
	}
}

// TestLegacySnapshotStillRecovers: a legacy-format file (dyngraph.Save) is
// sniffed and loaded through the old reader.
func TestLegacySnapshotStillRecovers(t *testing.T) {
	cfg := testConfig(16)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "snap.legacy")

	dg := dyngraph.New(16, false)
	dg.InsertEdge(0, 1, 1, 0)
	dg.InsertEdge(1, 2, 1, 0)
	f, err := os.Create(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dg.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatalf("legacy recover: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if !s.Recovered() {
		t.Fatal("Recovered() = false for legacy snapshot")
	}
	if st := s.StatsNow(); st.Edges != 2 {
		t.Fatalf("legacy recovery has %d edges, want 2", st.Edges)
	}
}

// TestCorruptFlatSnapshotFallsBack: a flat snapshot failing its CRC is
// quarantined and the server starts empty instead of refusing to boot.
func TestCorruptFlatSnapshotFallsBack(t *testing.T) {
	cfg := testConfig(16)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "snap.gsnf")
	ingestAndDrain(t, cfg, []dyngraph.Edit{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})

	data, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-7] ^= 0x20
	if err := os.WriteFile(cfg.SnapshotPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.Registry = testConfig(16).Registry
	s, err := New(cfg2)
	if err != nil {
		t.Fatalf("corrupt snapshot must not fail New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if s.Recovered() {
		t.Fatal("Recovered() = true for corrupt snapshot")
	}
	if st := s.StatsNow(); st.Edges != 0 {
		t.Fatalf("server started with %d edges from corrupt snapshot", st.Edges)
	}
	if _, err := os.Stat(cfg.SnapshotPath + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
}

// TestStaleSnapshotTmpSwept: leftover .tmp files from a crashed persist are
// removed at startup.
func TestStaleSnapshotTmpSwept(t *testing.T) {
	cfg := testConfig(8)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "snap.gsnf")
	stale := []string{cfg.SnapshotPath + ".tmp.1234", cfg.SnapshotPath + ".tmp.99999"}
	for _, p := range stale {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale tmp %s survived startup (err=%v)", p, err)
		}
	}
}

// TestWireShardMetaSkipsDispatch: the coordinator's version probe is
// answered before any trace state is built — no admission, decode, encode
// or other stage is observed for it — and is still counted like every
// other request.
func TestWireShardMetaSkipsDispatch(t *testing.T) {
	cfg := testConfig(64)
	cfg.ShardIndex, cfg.ShardCount = 1, 3
	s, _ := startServer(t, cfg)
	c := startWire(t, s)
	for i := 0; i < 3; i++ {
		m, err := c.ShardMeta(time.Second)
		if err != nil {
			t.Fatalf("shard.meta: %v", err)
		}
		if want := s.shardMeta(); *m != want {
			t.Fatalf("shard.meta = %+v, want %+v", *m, want)
		}
	}
	if n := cfg.Registry.Counter("server_queries_total", telemetry.L("op", "shard.meta"), telemetry.L("code", "200")).Value(); n != 3 {
		t.Fatalf("server_queries_total{op=shard.meta,code=200} = %d, want 3", n)
	}
	for _, stage := range []string{"admission", "decode", "encode", "other"} {
		if n := cfg.Registry.Histogram("server_stage_seconds", telemetry.L("endpoint", "shard.meta"), telemetry.L("stage", stage)).Snapshot().Count; n != 0 {
			t.Errorf("shard.meta observed %d %s stages; it must not be dispatched", n, stage)
		}
	}
}
