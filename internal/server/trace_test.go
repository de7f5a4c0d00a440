package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/par"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// clientTraceparent is a fixed, valid W3C header tests send as the caller's
// trace identity.
const clientTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// getTraced GETs path with a traceparent header and returns the echoed
// response header value.
func getTraced(t *testing.T, url, path, traceparent string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("traceparent")
}

// findSpans filters records by name.
func findSpans(spans []telemetry.SpanRecord, name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func attr(s telemetry.SpanRecord, key string) string {
	for _, l := range s.Attrs {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// TestTraceparentEchoAndSpanTree: a query carrying a W3C traceparent header
// is echoed the same trace ID (with the server's root span as parent-id),
// and the tracer retains a complete parent→child tree for the request —
// root → lifecycle stages → kernel span → scheduler spans.
func TestTraceparentEchoAndSpanTree(t *testing.T) {
	cfg := testConfig(64)
	s, ts := startServer(t, cfg)
	updates := []wire.IngestEdit{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	if code, _, _ := postIngest(t, ts.URL, updates); code != http.StatusAccepted {
		t.Fatalf("ingest = %d", code)
	}
	waitApplied(t, s, int64(len(updates)))

	code, echoed := getTraced(t, ts.URL, "/query/component?v=0", clientTraceparent)
	if code != http.StatusOK {
		t.Fatalf("component = %d", code)
	}
	sent, _ := telemetry.ParseTraceparent(clientTraceparent)
	got, ok := telemetry.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("echoed traceparent %q is malformed", echoed)
	}
	if got.TraceID != sent.TraceID {
		t.Fatalf("echoed trace ID %s, want %s", got.TraceID, sent.TraceID)
	}
	if got.Parent == sent.Parent {
		t.Error("echoed parent-id still the caller's; want the server root span ID")
	}

	spans := cfg.Registry.Tracer().TraceSpans(sent.TraceID)
	if len(spans) == 0 {
		t.Fatal("no spans retained for the request's trace ID")
	}
	roots := findSpans(spans, "server.component")
	if len(roots) != 1 {
		t.Fatalf("want 1 server.component root, have %d in %d spans", len(roots), len(spans))
	}
	root := roots[0]
	if root.Parent != sent.Parent {
		t.Errorf("root span parent = %x, want the caller's span ID %x", root.Parent, sent.Parent)
	}
	if root.ID != got.Parent {
		t.Errorf("echoed parent-id %x is not the root span ID %x", got.Parent, root.ID)
	}
	if attr(root, "status") != "200" {
		t.Errorf("root status attr = %q, want 200", attr(root, "status"))
	}

	// Every span in the trace must fold into a single tree under the root.
	trees := telemetry.BuildSpanTree(spans)
	if len(trees) != 1 || trees[0].Name != "server.component" {
		t.Fatalf("trace does not assemble into one root tree: %d roots", len(trees))
	}
	stageNames := map[string]bool{}
	var kernelStage *telemetry.SpanTree
	for _, c := range trees[0].Children {
		stageNames[c.Name] = true
		if c.Name == "stage.kernel" {
			kernelStage = c
		}
	}
	for _, want := range []string{"stage.admission", "stage.kernel", "stage.encode"} {
		if !stageNames[want] {
			t.Errorf("root is missing child %q (has %v)", want, stageNames)
		}
	}
	if kernelStage == nil {
		t.Fatal("no stage.kernel child")
	}
	if attr(kernelStage.SpanRecord, "cache") != "miss" {
		t.Errorf("first component query: stage.kernel cache attr = %q, want miss", attr(kernelStage.SpanRecord, "cache"))
	}
	var kernelSpan *telemetry.SpanTree
	for _, c := range kernelStage.Children {
		if c.Name == "kernel.wcc" {
			kernelSpan = c
		}
	}
	if kernelSpan == nil {
		t.Fatalf("stage.kernel has no kernel.wcc child: %+v", kernelStage.Children)
	}
	foundPar := false
	for _, c := range kernelSpan.Children {
		if strings.HasPrefix(c.Name, "par.") {
			foundPar = true
		}
	}
	if !foundPar {
		t.Errorf("kernel.wcc has no par.* scheduler children: %+v", kernelSpan.Children)
	}

	// A second identical query hits the per-version cache: hit counter up,
	// root tagged, no new rebuild.
	if code, _ := getTraced(t, ts.URL, "/query/component?v=0", ""); code != http.StatusOK {
		t.Fatalf("second component = %d", code)
	}
	var hits, rebuilds float64
	for _, m := range cfg.Registry.Snapshot() {
		switch m.Name {
		case "server_cache_hit_total":
			hits += m.Value
		case "server_cache_rebuilds_total":
			rebuilds += m.Value
		}
	}
	if hits < 1 || rebuilds != 1 {
		t.Errorf("cache counters: hits=%v rebuilds=%v, want >=1 and ==1", hits, rebuilds)
	}
}

// TestTraceEndpointServesRequestTree: /debug/trace/{id} on the server mux
// returns the request's assembled span tree.
func TestTraceEndpointServesRequestTree(t *testing.T) {
	cfg := testConfig(64)
	s, ts := startServer(t, cfg)
	if code, _, _ := postIngest(t, ts.URL, []wire.IngestEdit{{Src: 0, Dst: 1}}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	waitApplied(t, s, 1)
	if code, _ := getTraced(t, ts.URL, "/query/khop?v=0&k=1", clientTraceparent); code != http.StatusOK {
		t.Fatalf("khop = %d", code)
	}
	sent, _ := telemetry.ParseTraceparent(clientTraceparent)
	var dump struct {
		Trace    string `json:"trace"`
		Retained int    `json:"retained"`
		Spans    []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if code := getJSON(t, ts.URL, "/debug/trace/"+sent.TraceID.String(), &dump); code != http.StatusOK {
		t.Fatalf("/debug/trace = %d", code)
	}
	if dump.Trace != sent.TraceID.String() || dump.Retained == 0 {
		t.Fatalf("dump = %+v", dump)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Name != "server.khop" {
		t.Fatalf("want one server.khop root, got %+v", dump.Spans)
	}
}

// stageAndWallSums returns the seconds an endpoint's requests spent, summed
// over its server_stage_seconds stages and over server_query_seconds.
func stageAndWallSums(reg *telemetry.Registry, endpoint string) (stages, wall float64) {
	for _, m := range reg.Snapshot() {
		for _, l := range m.Labels {
			switch {
			case m.Name == "server_stage_seconds" && l.Key == "endpoint" && l.Value == endpoint:
				stages += m.Hist.Sum
			case m.Name == "server_query_seconds" && l.Key == "op" && l.Value == endpoint:
				wall += m.Hist.Sum
			}
		}
	}
	return stages, wall
}

// TestStageMetricsSumToWallTime: the server_stage_seconds family is
// published per (endpoint, stage), and because "other" absorbs the residual,
// the family's total sum equals the endpoint's server_query_seconds sum.
func TestStageMetricsSumToWallTime(t *testing.T) {
	cfg := testConfig(64)
	s, ts := startServer(t, cfg)
	if code, _, _ := postIngest(t, ts.URL, []wire.IngestEdit{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	waitApplied(t, s, 2)
	for i := 0; i < 3; i++ {
		if code := getJSON(t, ts.URL, "/query/topdegree?k=3", nil); code != http.StatusOK {
			t.Fatalf("topdegree = %d", code)
		}
	}

	for _, want := range []string{"admission", "kernel", "encode", "other"} {
		if n := cfg.Registry.Histogram("server_stage_seconds", telemetry.L("endpoint", "topdegree"), telemetry.L("stage", want)).Count(); n == 0 {
			t.Errorf("no server_stage_seconds observations for stage %q", want)
		}
	}
	total, wallSum := stageAndWallSums(cfg.Registry, "topdegree")
	if wallSum == 0 {
		t.Fatal("no server_query_seconds sum for topdegree")
	}
	if diff := total - wallSum; diff < -1e-6*wallSum || diff > 1e-6*wallSum {
		t.Errorf("stage sums %.9fs != wall sum %.9fs", total, wallSum)
	}

	// The Prometheus exposition carries the family with both labels.
	var buf bytes.Buffer
	if err := cfg.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `server_stage_seconds_count{endpoint="topdegree",stage="kernel"}`) {
		t.Error("/metrics missing server_stage_seconds{endpoint,stage} samples")
	}
}

// TestSlowQueryCapture: requests over the threshold land in the bounded
// ring (served at /debug/slowqueries) and in the JSON-lines sink, with a
// stage decomposition that sums exactly to the recorded wall time.
func TestSlowQueryCapture(t *testing.T) {
	var sink bytes.Buffer
	cfg := testConfig(64)
	cfg.SlowQueryThreshold = time.Nanosecond // everything is slow
	cfg.SlowQueryOut = &sink
	s, ts := startServer(t, cfg)
	if code, _, _ := postIngest(t, ts.URL, []wire.IngestEdit{{Src: 0, Dst: 1}}); code != http.StatusAccepted {
		t.Fatal("ingest failed")
	}
	waitApplied(t, s, 1)
	const queries = slowQueryRing + 3
	for i := 0; i < queries; i++ {
		if code := getJSON(t, ts.URL, "/query/component?v=0", nil); code != http.StatusOK {
			t.Fatalf("component = %d", code)
		}
	}

	recs := s.SlowQueries()
	if len(recs) != slowQueryRing {
		t.Fatalf("ring retained %d records, want %d (bounded)", len(recs), slowQueryRing)
	}
	for _, r := range recs {
		if r.Endpoint != "component" || r.Code != http.StatusOK || r.WallNs <= 0 {
			t.Errorf("bad record %+v", r)
		}
		var sum int64
		for _, st := range r.Stages {
			sum += st.DurNs
		}
		if sum != r.WallNs {
			t.Errorf("stage durations sum to %d, wall is %d", sum, r.WallNs)
		}
		if r.Tree.Retained == 0 || len(r.Tree.Spans) == 0 {
			t.Errorf("record has no span tree: %+v", r.Tree)
		}
		if _, ok := telemetry.ParseTraceID(r.Trace); !ok {
			t.Errorf("record trace %q is not a trace ID", r.Trace)
		}
	}

	var dump struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Count       int         `json:"count"`
		SlowQueries []SlowQuery `json:"slow_queries"`
	}
	if code := getJSON(t, ts.URL, "/debug/slowqueries", &dump); code != http.StatusOK {
		t.Fatalf("/debug/slowqueries = %d", code)
	}
	if dump.ThresholdNs != 1 || dump.Count < 2 || len(dump.SlowQueries) != dump.Count {
		t.Fatalf("slowqueries dump = threshold %d count %d len %d", dump.ThresholdNs, dump.Count, len(dump.SlowQueries))
	}

	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) < queries { // sink is unbounded: one line per slow request (ingest included)
		t.Fatalf("sink has %d lines, want >= %d", len(lines), queries)
	}
	var rec SlowQuery
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if rec.Endpoint == "" || rec.WallNs <= 0 {
		t.Errorf("sink record %+v", rec)
	}
}

// TestSlowQueryDisabledByDefault: with no threshold, nothing is captured
// but the endpoint still serves.
func TestSlowQueryDisabledByDefault(t *testing.T) {
	cfg := testConfig(64)
	s, ts := startServer(t, cfg)
	if code := getJSON(t, ts.URL, "/query/topdegree?k=1", nil); code != http.StatusOK {
		t.Fatalf("topdegree = %d", code)
	}
	if got := s.SlowQueries(); len(got) != 0 {
		t.Fatalf("captured %d slow queries with capture disabled", len(got))
	}
	var dump struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, ts.URL, "/debug/slowqueries", &dump); code != http.StatusOK || dump.Count != 0 {
		t.Fatalf("/debug/slowqueries = %d count %d", code, dump.Count)
	}
}

// TestIngestStagesTraced: ingest requests carry the same lifecycle
// discipline — root span, read/decode/enqueue/encode stages, stage metrics
// that sum to the endpoint's wall time.
func TestIngestStagesTraced(t *testing.T) {
	cfg := testConfig(64)
	_, ts := startServer(t, cfg)
	body, _ := json.Marshal([]wire.IngestEdit{{Src: 0, Dst: 1}})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader(body))
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	sent, _ := telemetry.ParseTraceparent(clientTraceparent)
	spans := cfg.Registry.Tracer().TraceSpans(sent.TraceID)
	roots := findSpans(spans, "server.ingest")
	if len(roots) != 1 {
		t.Fatalf("want 1 server.ingest root, have %d", len(roots))
	}
	if attr(roots[0], "accepted") != "1" {
		t.Errorf("ingest root accepted attr = %q", attr(roots[0], "accepted"))
	}
	for _, want := range []string{"stage.read", "stage.decode", "stage.enqueue", "stage.encode"} {
		if len(findSpans(spans, want)) != 1 {
			t.Errorf("trace missing %s", want)
		}
	}
	stageSum, wall := stageAndWallSums(cfg.Registry, "ingest")
	if wall == 0 || math.Abs(stageSum-wall) > 1e-6*wall {
		t.Errorf("graphd ingest: stages sum to %.9fs, wall %.9fs", stageSum, wall)
	}
}

// TestLoadedQueryAttribution is the end-to-end latency-attribution check
// (the loaded-path counterpart of E11, recorded as E12 in EXPERIMENTS.md):
// a query issued during continuous ingest — so the published snapshot and
// PageRank are stale — must produce a span tree whose named lifecycle
// stages account for >= 95% of the request's measured wall time (the root
// span duration), with the build it waited for identifiable as the dominant
// cost. MaxPendingEdits is one edit, so by the time the query runs the
// window has overflowed: the build is the fallback (a full snapshot rebuild
// and PageRank recompute), the costliest build the writer makes.
func TestLoadedQueryAttribution(t *testing.T) {
	const (
		vertices = 1 << 15
		preload  = 120_000
	)
	cfg := testConfig(vertices)
	cfg.QueueCap = 1 << 13
	cfg.MaxPendingEdits = 1
	s, ts := startServer(t, cfg)

	rng := rand.New(rand.NewSource(42))
	randomEdits := func(n int) []dyngraph.Edit {
		edits := make([]dyngraph.Edit, n)
		for i := range edits {
			src := rng.Int31n(vertices)
			dst := rng.Int31n(vertices)
			if dst == src {
				dst = (dst + 1) % vertices
			}
			edits[i] = dyngraph.Edit{Src: src, Dst: dst, Weight: 1}
		}
		return edits
	}
	enqueueAll := func(edits []dyngraph.Edit) {
		for len(edits) > 0 {
			res := s.enqueue(edits)
			edits = edits[res.Accepted:]
			if res.Rejected > 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	enqueueAll(randomEdits(preload))
	deadline := time.Now().Add(30 * time.Second)
	for s.StatsNow().QueueDepth > 0 {
		if time.Now().After(deadline) {
			t.Fatal("preload did not drain")
		}
		time.Sleep(time.Millisecond)
	}

	// Seed the PageRank state, then churn the version while the query runs.
	// The writer publishes for a batch or two after the seeding read and
	// then stops (nobody reads), so once the visible version stands two
	// batches past the published bundle the one-batch log no longer reaches
	// back to the state: the query pays a full snapshot + PageRank rebuild —
	// the E11 loaded regime.
	if code := getJSON(t, ts.URL, "/query/pagerank?v=1&timeout=30s", nil); code != http.StatusOK {
		t.Fatalf("seeding pagerank = %d", code)
	}
	fallbacks := counterSum(cfg.Registry, "server_incr_fallbacks_total", "pagerank")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				enqueueAll(randomEdits(64))
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	for st := s.StatsNow(); st.Version < st.SnapshotVersion+2; st = s.StatsNow() {
		time.Sleep(time.Millisecond)
	}

	code, echoed := getTraced(t, ts.URL, "/query/pagerank?v=1&timeout=30s", clientTraceparent)
	close(stop)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("pagerank = %d", code)
	}

	tc, ok := telemetry.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("echoed traceparent %q malformed", echoed)
	}
	trees := telemetry.BuildSpanTree(cfg.Registry.Tracer().TraceSpans(tc.TraceID))
	if len(trees) != 1 || trees[0].Name != "server.pagerank" {
		t.Fatalf("want one server.pagerank tree, got %d roots", len(trees))
	}
	root := trees[0]
	stages := map[string]time.Duration{}
	var waitStage *telemetry.SpanTree
	for _, c := range root.Children {
		name := strings.TrimPrefix(c.Name, "stage.")
		stages[name] += c.Dur
		if c.Name == "stage.snapshot" {
			waitStage = c
		}
	}
	var named time.Duration
	for _, d := range stages {
		named += d
	}
	if root.Dur <= 0 || named <= 0 {
		t.Fatalf("degenerate durations: root=%v named=%v", root.Dur, named)
	}
	coverage := float64(named) / float64(root.Dur)
	t.Logf("host: %s/%s, %d CPU, par workers %d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), par.DefaultWorkers())
	t.Logf("loaded pagerank request wall (root span) = %v", root.Dur)
	for name, d := range stages {
		t.Logf("  stage %-10s %12v  (%5.1f%%)", name, d, 100*float64(d)/float64(root.Dur))
	}
	t.Logf("named-stage coverage = %.2f%%", 100*coverage)
	if coverage < 0.95 {
		t.Errorf("named stages cover %.2f%% of request wall time, want >= 95%%", 100*coverage)
	}
	if coverage > 1.0+1e-9 {
		t.Errorf("stage coverage %.4f exceeds the root duration — stages overlap", coverage)
	}
	// The published bundle carries a (stale) PageRank since the seeding
	// read, so the query waits for the catch-up build in its snapshot stage.
	if waitStage == nil {
		t.Fatal("no stage.snapshot span — the query found a current bundle; load did not churn the version")
	}
	if got := counterSum(cfg.Registry, "server_incr_fallbacks_total", "pagerank"); got <= fallbacks {
		t.Errorf("pagerank fallbacks went %v -> %v: the build advanced instead of missing the log", fallbacks, got)
	}
	// The fallback work a warm-version request would skip is the snapshot
	// (CSR) rebuild plus the kernel recompute; together they must dominate
	// the request, and every other stage must be minor next to them.
	rebuild := stages["snapshot"] + stages["kernel"]
	for name, d := range stages {
		if name != "snapshot" && name != "kernel" && d >= rebuild {
			t.Errorf("stage %s (%v) >= rebuild stages (%v); the fallback build should dominate", name, d, rebuild)
		}
	}
	if frac := float64(rebuild) / float64(root.Dur); frac < 0.5 {
		t.Errorf("fallback build stages are %.1f%% of wall, want dominant (>= 50%%)", 100*frac)
	}
	// The attribution threads all the way down: the wait stage holds the
	// build's steps and the PageRank recompute's kernel span, with its
	// iteration count and scheduler children.
	var prSpan *telemetry.SpanTree
	steps := map[string]bool{}
	for _, c := range waitStage.Children {
		steps[c.Name] = true
		if c.Name == "kernel.pagerank" {
			prSpan = c
		}
	}
	if !steps["build.snapshot"] || !steps["build.pagerank"] {
		t.Errorf("stage.snapshot children %v, want the build.snapshot and build.pagerank steps", steps)
	}
	if prSpan == nil {
		t.Fatalf("stage.snapshot has no kernel.pagerank child")
	}
	if attr(prSpan.SpanRecord, "iters") == "" {
		t.Error("kernel.pagerank span missing iters attr")
	}
	parSpans := 0
	for _, c := range prSpan.Children {
		if strings.HasPrefix(c.Name, "par.") {
			parSpans++
		}
	}
	if parSpans == 0 {
		t.Error("kernel.pagerank has no par.* scheduler children")
	}
	t.Logf("kernel.pagerank: iters=%s, %d scheduler spans", attr(prSpan.SpanRecord, "iters"), parSpans)
}
