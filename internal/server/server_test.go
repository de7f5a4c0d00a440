package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// testConfig returns a small private-registry config so tests never touch
// the process-default registry or each other's metrics.
func testConfig(vertices int32) Config {
	cfg := DefaultConfig()
	cfg.Vertices = vertices
	cfg.QueueCap = 1 << 12
	cfg.FlushEvery = time.Millisecond
	cfg.DefaultTimeout = 5 * time.Second
	cfg.MaxTimeout = 10 * time.Second
	cfg.Registry = telemetry.NewRegistry()
	return cfg
}

// startServer builds the Server plus an httptest listener and registers
// cleanup in dependency order (listener first, then drain).
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postIngest POSTs updates and decodes the wire.IngestResult regardless of
// status (both 202 and 429 carry one).
func postIngest(t *testing.T, url string, updates []wire.IngestEdit) (int, wire.IngestResult, http.Header) {
	t.Helper()
	body, err := json.Marshal(updates)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var res wire.IngestResult
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusTooManyRequests {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decode ingest response: %v", err)
		}
	}
	return resp.StatusCode, res, resp.Header
}

// waitApplied polls until the server has applied at least n updates.
func waitApplied(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Applied() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d applied updates, have %d", n, s.Applied())
		}
		time.Sleep(time.Millisecond)
	}
}

// getJSON GETs path and decodes the response into out, returning the code.
func getJSON(t *testing.T, url, path string, out any) int {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// direct returns ctx carrying a fresh request trace, for calling a query
// body (run*) straight from a test: reads pin the bundle they answer from
// until the request finishes, which here is when the test ends.
func direct(tb testing.TB, s *Server, ctx context.Context) context.Context {
	ctx, rt := s.startTrace(ctx, telemetry.TraceContext{}, "test", time.Now())
	tb.Cleanup(func() { rt.finish(http.StatusOK, 0) })
	return ctx
}

// TestIngestQueryFreshness: updates acknowledged with 202 become visible to
// every query endpoint once applied, including deletes.
func TestIngestQueryFreshness(t *testing.T) {
	s, ts := startServer(t, testConfig(64))

	// A star around 0 (spokes 1..4) plus the edge 1-2 so Jaccard has a
	// wedge: 1 and 2 share neighbor 0.
	updates := []wire.IngestEdit{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		{Src: 1, Dst: 2},
	}
	code, res, _ := postIngest(t, ts.URL, updates)
	if code != http.StatusAccepted || res.Accepted != len(updates) {
		t.Fatalf("ingest = %d %+v, want 202 all accepted", code, res)
	}
	waitApplied(t, s, int64(len(updates)))

	var top struct {
		Results []struct {
			V     int32   `json:"v"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if code := getJSON(t, ts.URL, "/query/topdegree?k=1", &top); code != 200 {
		t.Fatalf("topdegree = %d", code)
	}
	if len(top.Results) != 1 || top.Results[0].V != 0 || top.Results[0].Score != 4 {
		t.Fatalf("topdegree = %+v, want vertex 0 with degree 4", top.Results)
	}

	var khop struct {
		Count    int     `json:"count"`
		Vertices []int32 `json:"vertices"`
	}
	if code := getJSON(t, ts.URL, "/query/khop?v=3&k=2", &khop); code != 200 {
		t.Fatalf("khop = %d", code)
	}
	if khop.Count != 5 { // 3, hub 0, then 1/2/4
		t.Fatalf("khop count = %d (%v), want 5", khop.Count, khop.Vertices)
	}

	var comp struct {
		Component int32 `json:"component"`
		Size      int64 `json:"size"`
	}
	if code := getJSON(t, ts.URL, "/query/component?v=4", &comp); code != 200 {
		t.Fatalf("component = %d", code)
	}
	if comp.Component != 0 || comp.Size != 5 {
		t.Fatalf("component = %+v, want label 0 size 5", comp)
	}

	var jac struct {
		Results []struct {
			V     int32   `json:"v"`
			Score float64 `json:"score"`
		} `json:"results"`
	}
	if code := getJSON(t, ts.URL, "/query/jaccard?u=1", &jac); code != 200 {
		t.Fatalf("jaccard = %d", code)
	}
	found := false
	for _, r := range jac.Results {
		if r.V == 2 && r.Score > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("jaccard(1) = %+v, want positive score for partner 2", jac.Results)
	}

	var pr struct {
		Rank float64 `json:"rank"`
	}
	if code := getJSON(t, ts.URL, "/query/pagerank?v=0", &pr); code != 200 {
		t.Fatalf("pagerank = %d", code)
	}
	if pr.Rank <= 0 {
		t.Fatalf("pagerank(0) = %v, want > 0", pr.Rank)
	}

	// Freshness after a delete: removing a spoke must show up in the next
	// topdegree answer.
	code, _, _ = postIngest(t, ts.URL, []wire.IngestEdit{{Src: 0, Dst: 4, Delete: true}})
	if code != http.StatusAccepted {
		t.Fatalf("delete ingest = %d", code)
	}
	waitApplied(t, s, int64(len(updates))+1)
	if code := getJSON(t, ts.URL, "/query/topdegree?k=1", &top); code != 200 {
		t.Fatalf("topdegree after delete = %d", code)
	}
	if top.Results[0].V != 0 || top.Results[0].Score != 3 {
		t.Fatalf("topdegree after delete = %+v, want degree 3", top.Results)
	}

	var st Stats
	if code := getJSON(t, ts.URL, "/stats", &st); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if st.Edges != 4 || st.Applied != int64(len(updates))+1 {
		t.Fatalf("stats = %+v, want 4 edges, %d applied", st, len(updates)+1)
	}
}

// ingestAll posts updates and, while the server answers 429 (queue full:
// it accepted a prefix), re-posts the rejected suffix after a short sleep.
// Back-to-back posts must use it; a strict "202, all accepted" check is only
// right for one post of at most QueueCap updates onto a drained queue.
func ingestAll(t *testing.T, url string, updates []wire.IngestEdit) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(updates) > 0 {
		code, res, _ := postIngest(t, url, updates)
		if code != http.StatusAccepted && code != http.StatusTooManyRequests {
			t.Fatalf("ingest = %d %+v, want 202 or 429", code, res)
		}
		updates = updates[res.Accepted:]
		if len(updates) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("ingest still rejecting %d updates after 10s of retries", len(updates))
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// ingestClique fills the server with a dense-ish deterministic graph big
// enough that PageRank takes well over the test deadlines.
func ingestClique(t *testing.T, s *Server, ts *httptest.Server, n int32) int64 {
	t.Helper()
	updates := make([]wire.IngestEdit, 0, 8*int(n))
	for v := int32(0); v < n; v++ {
		for d := int32(1); d <= 8; d++ {
			updates = append(updates, wire.IngestEdit{Src: v, Dst: (v + d) % n})
		}
	}
	for at := 0; at < len(updates); at += 4096 {
		ingestAll(t, ts.URL, updates[at:min(at+4096, len(updates))])
	}
	waitApplied(t, s, int64(len(updates)))
	return int64(len(updates))
}

// TestDeadlineExceeded504CancelsKernel: an expiring ?timeout= returns 504
// while the request waits for the writer to build a kernel it is the first
// to ask for, and the deadline stops only the wait. The build runs to
// completion — par records no cancellation — and the follow-up query is
// served from it, with no second full compute. (The name predates
// writer-built bundles, when the kernel ran on the request and the deadline
// cancelled it.)
func TestDeadlineExceeded504CancelsKernel(t *testing.T) {
	cfg := testConfig(4096)
	s, ts := startServer(t, cfg)
	ingestClique(t, s, ts, 4096)

	before := par.TotalsSnapshot()
	resp, err := http.Get(ts.URL + "/query/pagerank?timeout=200us")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}

	// The same query with a generous deadline succeeds from the build the
	// timed-out request started.
	if code := getJSON(t, ts.URL, "/query/pagerank?v=0&timeout=30s", nil); code != 200 {
		t.Fatalf("follow-up pagerank = %d, want 200", code)
	}
	if d := par.TotalsSnapshot().Sub(before); d.Cancellations != 0 || d.SkippedChunks != 0 {
		t.Fatalf("the deadline cancelled the writer's build: %+v", d)
	}
	if got := counterSum(cfg.Registry, "server_cache_rebuilds_total", "pagerank"); got != 1 {
		t.Fatalf("pagerank full computes = %v, want 1", got)
	}
}

// TestBadRequests: malformed parameters and bodies map to 400, wrong
// methods to 405.
func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, testConfig(16))
	for _, path := range []string{
		"/query/jaccard",              // missing u
		"/query/jaccard?u=99",         // out of range
		"/query/jaccard?u=abc",        // not a number
		"/query/khop?v=1&k=-2",        // bad k
		"/query/topdegree?k=0",        // bad k
		"/query/pagerank?timeout=nah", // bad timeout
		"/query/component?v=-1",       // negative vertex
	} {
		if code := getJSON(t, ts.URL, path, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, code)
		}
	}
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad ingest body = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest = %d, want 405", resp.StatusCode)
	}
	code, _, _ := postIngest(t, ts.URL, []wire.IngestEdit{{Src: 0, Dst: 99}})
	if code != http.StatusBadRequest {
		t.Errorf("out-of-range ingest = %d, want 400", code)
	}
}

// TestQueueFull429: with batch application stalled, the bounded queue fills
// and further ingest is refused with 429 + Retry-After; releasing the stall
// applies everything that was acknowledged.
func TestQueueFull429(t *testing.T) {
	cfg := testConfig(1024)
	cfg.QueueCap = 64
	cfg.BatchSize = 8
	gate := make(chan struct{})
	cfg.applyGate = gate
	s, ts := startServer(t, cfg)

	// Unique (src,dst) pairs so in-batch dedup drops nothing and the final
	// applied count must equal the accepted count exactly.
	next := 0
	mkBatch := func(n int) []wire.IngestEdit {
		b := make([]wire.IngestEdit, n)
		for i := range b {
			b[i] = wire.IngestEdit{Src: int32(next / 1023), Dst: int32(next%1023) + 1}
			next++
		}
		return b
	}

	var accepted int64
	saw429 := false
	var gotRes wire.IngestResult
	var gotHdr http.Header
	for i := 0; i < 40 && !saw429; i++ {
		code, res, hdr := postIngest(t, ts.URL, mkBatch(32))
		accepted += int64(res.Accepted)
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429, gotRes, gotHdr = true, res, hdr
		default:
			t.Fatalf("ingest = %d, want 202 or 429", code)
		}
	}
	if !saw429 {
		t.Fatalf("queue (cap %d) never produced a 429 after %d acknowledged updates", cfg.QueueCap, accepted)
	}
	if gotHdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if gotRes.Rejected == 0 {
		t.Errorf("429 response reports 0 rejected: %+v", gotRes)
	}
	if gotRes.Accepted+gotRes.Rejected != 32 {
		t.Errorf("429 accounting %+v does not cover the request", gotRes)
	}

	// Release the stall: every acknowledged update must reach the graph.
	close(gate)
	waitApplied(t, s, accepted)
	if got := s.Applied(); got != accepted {
		t.Fatalf("applied %d updates, acknowledged %d", got, accepted)
	}
	var st Stats
	getJSON(t, ts.URL, "/stats", &st)
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth = %d after release, want 0", st.QueueDepth)
	}
}

// TestShutdownDrainAndRecover: shutdown drains acknowledged updates into a
// final snapshot; a new server over the same path recovers an equivalent
// graph; a draining server refuses ingest with 503.
func TestShutdownDrainAndRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(64)
	cfg.SnapshotPath = filepath.Join(dir, "graph.snap")
	cfg.SnapshotEvery = 0 // only the shutdown snapshot
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	updates := make([]wire.IngestEdit, 0, 200)
	for i := 0; i < 200; i++ {
		updates = append(updates, wire.IngestEdit{Src: int32(i % 50), Dst: int32(50 + i%14)})
	}
	code, res, _ := postIngest(t, ts.URL, updates)
	if code != http.StatusAccepted {
		t.Fatalf("ingest = %d", code)
	}

	// Shut down immediately: the drain, not a flush timer, must land the
	// acknowledged updates in the snapshot.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.Applied(); got < int64(res.Accepted) {
		t.Fatalf("drain applied %d of %d acknowledged updates", got, res.Accepted)
	}

	// Draining servers refuse new work.
	code, _, hdr := postIngest(t, ts.URL, []wire.IngestEdit{{Src: 1, Dst: 2}})
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("ingest while draining = %d (Retry-After %q), want 503 with Retry-After", code, hdr.Get("Retry-After"))
	}
	// Liveness stays up through the drain (a restart here would lose the
	// queued updates); readiness reports the drain so balancers route away.
	if code := getJSON(t, ts.URL, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness)", code)
	}
	var rd Readiness
	if code := getJSON(t, ts.URL, "/readyz", &rd); code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("readyz while draining = %d ready=%v, want 503 not-ready", code, rd.Ready)
	}

	wantEdges := s.StatsNow().Edges

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
	if got := s2.StatsNow().Edges; got != wantEdges {
		t.Fatalf("recovered %d edges, want %d", got, wantEdges)
	}
	assertEquivalentGraphs(t, s.dyn, s2.dyn)
}

// assertEquivalentGraphs compares two dynamic graphs structurally: same
// vertex count and identical sorted neighbor lists everywhere.
func assertEquivalentGraphs(t *testing.T, a, b *dyngraph.DynGraph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.NumArcs() != b.NumArcs() {
		t.Fatalf("graph shape mismatch: %d/%d/%d vs %d/%d/%d vertices/edges/arcs",
			a.NumVertices(), a.NumEdges(), a.NumArcs(), b.NumVertices(), b.NumEdges(), b.NumArcs())
	}
	for v := int32(0); v < a.NumVertices(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		sort.Slice(na, func(i, j int) bool { return na[i] < na[j] })
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		if len(na) != len(nb) {
			t.Fatalf("vertex %d: %d vs %d neighbors", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbor %d: %d vs %d", v, i, na[i], nb[i])
			}
		}
	}
}

// TestLoadBackpressureAndMidLoadDrain is the acceptance load test: ingest
// until backpressure engages (429 observed) while concurrent in-deadline
// queries all succeed, then shut down mid-load and verify the snapshot
// restores to an equivalent graph.
func TestLoadBackpressureAndMidLoadDrain(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2048)
	cfg.QueueCap = 256
	cfg.BatchSize = 64
	cfg.SnapshotPath = filepath.Join(dir, "graph.snap")
	cfg.SnapshotEvery = 0
	// Meter batch application to ~1 batch/2ms so the ingest side can
	// outrun it and the queue genuinely fills.
	gate := make(chan struct{})
	var meterWG sync.WaitGroup
	meterWG.Add(1)
	stopMeter := make(chan struct{})
	go func() {
		defer meterWG.Done()
		for {
			select {
			case gate <- struct{}{}:
				time.Sleep(2 * time.Millisecond)
			case <-stopMeter:
				return
			}
		}
	}()
	cfg.applyGate = gate

	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rejected429 atomic.Int64
	var queryFailures atomic.Int64
	var drainStarted atomic.Bool
	stopQueries := make(chan struct{})
	var wg sync.WaitGroup

	// Query workers: mixed endpoints, generous deadlines — every one must
	// succeed while ingest is saturating the queue.
	paths := []string{
		"/query/topdegree?k=5&timeout=5s",
		"/query/khop?v=1&k=2&timeout=5s",
		"/query/jaccard?u=2&timeout=5s",
		"/query/component?v=3&timeout=5s",
		"/stats",
		"/healthz",
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopQueries:
					return
				default:
				}
				path := paths[(i+w)%len(paths)]
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					queryFailures.Add(1)
					continue
				}
				resp.Body.Close()
				// Once the drain begins, /healthz intentionally flips to 503.
				if resp.StatusCode == http.StatusServiceUnavailable && drainStarted.Load() {
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d under load, want 200", path, resp.StatusCode)
					queryFailures.Add(1)
				}
			}
		}(w)
	}

	// Ingest driver: hammer until backpressure is observed.
	next := 0
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 400 && rejected429.Load() == 0; i++ {
		batch := make([]wire.IngestEdit, 256)
		for j := range batch {
			batch[j] = wire.IngestEdit{Src: int32(next % 2048), Dst: int32((next*7 + 1) % 2048)}
			next++
		}
		body, _ := json.Marshal(batch)
		resp, err := client.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("ingest POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected429.Add(1)
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest = %d, want 202/429", resp.StatusCode)
		}
	}
	if rejected429.Load() == 0 {
		t.Fatal("backpressure never engaged: no 429 observed")
	}

	// Mid-load drain (what SIGTERM triggers in cmd/graphd): queries are
	// still flying when the drain starts. Unmeter the apply path first so
	// the drain is not artificially slow.
	close(stopMeter)
	meterWG.Wait()
	close(gate)
	drainStarted.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("mid-load Shutdown: %v", err)
	}
	close(stopQueries)
	wg.Wait()
	if n := queryFailures.Load(); n > 0 {
		t.Fatalf("%d queries failed under load", n)
	}
	if depth := len(s.queue); depth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", depth)
	}

	// The snapshot restores to a graph equivalent to the drained state.
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
		t.Fatal("post-drain server did not recover from the snapshot")
	}
	assertEquivalentGraphs(t, s.dyn, s2.dyn)
}

// TestTelemetrySharesListener: the registry's exporter endpoints are served
// from the same mux as the API, and the server_* families show up there.
func TestTelemetrySharesListener(t *testing.T) {
	s, ts := startServer(t, testConfig(32))
	code, _, _ := postIngest(t, ts.URL, []wire.IngestEdit{{Src: 1, Dst: 2}})
	if code != http.StatusAccepted {
		t.Fatalf("ingest = %d", code)
	}
	waitApplied(t, s, 1)
	if code := getJSON(t, ts.URL, "/query/topdegree?k=1", nil); code != 200 {
		t.Fatalf("topdegree = %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"server_ingest_enqueued_total",
		"server_ingest_batches_total",
		"server_queries_total",
		"server_query_seconds",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing family %q", want)
		}
	}
}

// TestMaxInflightDefaults: MaxInflight <= 0 ties the admission budget to
// the par scheduler's worker count.
func TestMaxInflightDefaults(t *testing.T) {
	cfg := testConfig(16)
	cfg.MaxInflight = 0
	s, _ := startServer(t, cfg)
	if got, want := cap(s.admit), par.DefaultWorkers(); got != want {
		t.Fatalf("admission budget = %d, want par.DefaultWorkers() = %d", got, want)
	}
}

// TestSnapshotMismatchRejected: recovering a snapshot whose shape differs
// from the config is a hard startup error, not silent data loss.
func TestSnapshotMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(64)
	cfg.SnapshotPath = filepath.Join(dir, "graph.snap")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Vertices = 128
	if _, err := New(cfg2); err == nil {
		t.Fatal("recovering a 64-vertex snapshot into a 128-vertex config succeeded")
	} else if want := "snapshot"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention the snapshot", err)
	}
}

// TestEnqueuePartialAcceptIsContiguous: when the queue fills mid-request,
// the accepted prefix and rejected suffix partition the request in order,
// so a client can retry exactly the tail.
func TestEnqueuePartialAcceptIsContiguous(t *testing.T) {
	cfg := testConfig(256)
	cfg.QueueCap = 10
	cfg.BatchSize = 4
	gate := make(chan struct{})
	cfg.applyGate = gate
	s, _ := startServer(t, cfg)
	defer close(gate)

	edits := make([]dyngraph.Edit, 40)
	for i := range edits {
		edits[i] = dyngraph.Edit{Src: int32(i), Dst: int32(i + 1)}
	}
	res := s.enqueue(edits)
	if res.Accepted == 0 || res.Rejected == 0 || res.Accepted+res.Rejected != len(edits) {
		t.Fatalf("enqueue = %+v, want a strict prefix accepted", res)
	}
}
