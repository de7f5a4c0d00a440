package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/prof"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// getAnyJSON fetches a URL and decodes the body into out regardless of
// status (unlike getJSON, which only decodes on 200 — /readyz carries its
// payload on 503 too).
func getAnyJSON(t *testing.T, base, path string, out any) int {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s (%d): %v\n%s", path, resp.StatusCode, err, body)
		}
	}
	return resp.StatusCode
}

// readyCheck extracts one named check from a Readiness evaluation.
func readyCheck(t *testing.T, r wire.Readiness, name string) wire.ReadyCheck {
	t.Helper()
	for _, c := range r.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("readiness has no %q check: %+v", name, r)
	return wire.ReadyCheck{}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadyzFresh: a freshly started daemon is ready with every check
// passing, and /healthz answers 200 as pure liveness.
func TestReadyzFresh(t *testing.T) {
	_, ts := startServer(t, testConfig(64))
	var rd wire.Readiness
	if code := getAnyJSON(t, ts.URL, "/readyz", &rd); code != http.StatusOK || !rd.Ready {
		t.Fatalf("fresh readyz = %d ready=%v, want 200 ready", code, rd.Ready)
	}
	if len(rd.Checks) != 6 {
		t.Fatalf("got %d checks, want 6: %+v", len(rd.Checks), rd.Checks)
	}
	for _, c := range rd.Checks {
		if !c.OK {
			t.Errorf("fresh daemon check %q failing: %s", c.Name, c.Detail)
		}
	}
	if code := getJSON(t, ts.URL, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
}

// TestReadyzQueuePressure: with the ingest loop stalled and the queue
// filled past the high-water fraction, the ingest-queue check fails.
func TestReadyzQueuePressure(t *testing.T) {
	cfg := testConfig(64)
	cfg.QueueCap = 10
	cfg.applyGate = make(chan struct{})
	s, _ := startServer(t, cfg)
	defer close(cfg.applyGate)

	// Overfill: the loop may have pulled a first batch before stalling at
	// the gate, so offer more than QueueCap.
	edits := make([]dyngraph.Edit, 2*cfg.QueueCap)
	for i := range edits {
		edits[i] = dyngraph.Edit{Src: int32(i % 8), Dst: int32((i + 7) % 8)}
	}
	waitFor(t, 5*time.Second, "queue to fill", func() bool {
		s.enqueue(edits)
		return len(s.queue) >= 9
	})
	rd := s.readiness()
	if c := readyCheck(t, rd, "ingest-queue"); c.OK {
		t.Fatalf("ingest-queue check passing at depth %d/10: %s", len(s.queue), c.Detail)
	}
	if rd.Ready {
		t.Fatal("server ready with a saturated ingest queue")
	}
	// The queue-depth high-water mark saw the fill.
	if v := cfg.Registry.Gauge("server_ingest_queue_depth_hwm").Value(); v < 9 {
		t.Fatalf("server_ingest_queue_depth_hwm = %v, want ≥ 9", v)
	}
}

// TestReadyzHeapWatermark: an absurdly low heap limit fails the heap check.
func TestReadyzHeapWatermark(t *testing.T) {
	cfg := testConfig(64)
	cfg.ReadyMaxHeapBytes = 1
	s, _ := startServer(t, cfg)
	if c := readyCheck(t, s.readiness(), "heap"); c.OK {
		t.Fatalf("heap check passing with a 1-byte limit: %s", c.Detail)
	}
}

// TestReadyzSnapshotAge: with persistence enabled, the snapshot-age check
// fails once the last persist is older than 3 × SnapshotEvery, and
// recovers after a Persist.
func TestReadyzSnapshotAge(t *testing.T) {
	cfg := testConfig(64)
	cfg.SnapshotPath = t.TempDir() + "/snap.bin"
	cfg.SnapshotEvery = time.Hour // periodic persister effectively off
	s, _ := startServer(t, cfg)

	if c := readyCheck(t, s.readiness(), "snapshot-age"); !c.OK {
		t.Fatalf("snapshot-age check failing on a fresh daemon: %s", c.Detail)
	}
	s.lastPersist.Store(time.Now().Add(-3*cfg.SnapshotEvery - time.Minute).UnixNano())
	if c := readyCheck(t, s.readiness(), "snapshot-age"); c.OK {
		t.Fatalf("snapshot-age check passing with the last persist past 3 × interval: %s", c.Detail)
	}
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	if c := readyCheck(t, s.readiness(), "snapshot-age"); !c.OK {
		t.Fatalf("snapshot-age check failing right after Persist: %s", c.Detail)
	}
}

// TestBeginDrainFlipsReadyzOnly: BeginDrain makes /readyz 503 while
// queries still serve and /healthz stays 200 — the drain-grace state the
// daemon holds while balancers notice.
func TestBeginDrainFlipsReadyzOnly(t *testing.T) {
	s, ts := startServer(t, testConfig(64))
	s.BeginDrain()
	var rd wire.Readiness
	if code := getAnyJSON(t, ts.URL, "/readyz", &rd); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after BeginDrain = %d, want 503", code)
	}
	if c := readyCheck(t, rd, "draining"); c.OK {
		t.Fatal("draining check passing after BeginDrain")
	}
	if code := getJSON(t, ts.URL, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after BeginDrain = %d, want 200", code)
	}
	if code := getJSON(t, ts.URL, "/query/topdegree?k=1", nil); code != http.StatusOK {
		t.Fatalf("query after BeginDrain = %d, want 200 (in-flight work completes)", code)
	}
	if v := s.reg.Gauge("server_ready").Value(); v != 0 {
		t.Fatalf("server_ready = %v after not-ready /readyz, want 0", v)
	}
}

// TestClusterBeginDrainFlipsReadyz: graphctl's front end holds the same
// drain state as graphd's. After BeginDrain its /readyz answers 503 with a
// failing draining check leading the still-ready shard checks, /healthz
// stays 200 and queries still answer.
func TestClusterBeginDrainFlipsReadyz(t *testing.T) {
	_, coord, reg := startCluster(t, 64, 1)
	api := ClusterHandler(coord, reg)
	ctl := httptest.NewServer(api)
	defer ctl.Close()
	waitFor(t, 5*time.Second, "graphctl ready", func() bool {
		return getAnyJSON(t, ctl.URL, "/readyz", nil) == http.StatusOK
	})
	api.BeginDrain()
	var rd wire.Readiness
	if code := getAnyJSON(t, ctl.URL, "/readyz", &rd); code != http.StatusServiceUnavailable || rd.Ready {
		t.Fatalf("readyz after BeginDrain = %d %+v, want 503", code, rd)
	}
	if len(rd.Checks) != 2 || rd.Checks[0].Name != "draining" || rd.Checks[0].OK || !rd.Checks[1].OK {
		t.Fatalf("readyz checks after BeginDrain = %+v, want a failing draining check, then a ready shard-0", rd.Checks)
	}
	if code := getJSON(t, ctl.URL, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after BeginDrain = %d, want 200", code)
	}
	if code := getJSON(t, ctl.URL, "/query/topdegree?k=1", nil); code != http.StatusOK {
		t.Fatalf("query after BeginDrain = %d, want 200 (in-flight work completes)", code)
	}
}

// TestClusterReadinessDrill: the coordinator hears each shard's readiness
// in its shard.meta answers, with wire addresses only. A shard whose ingest
// queue fills, or that begins a planned drain, fails its check in graphctl's
// /readyz within a few poll intervals, named by the failing shard check;
// a shard that recovers is ready again at the next poll.
func TestClusterReadinessDrill(t *testing.T) {
	const vertices, poll = 64, 50 * time.Millisecond
	held := shardConfig(vertices, 1, 2)
	held.QueueCap = 10
	held.applyGate = make(chan struct{})
	release := sync.OnceFunc(func() { close(held.applyGate) })
	shards := []*testShard{startShard(t, shardConfig(vertices, 0, 2), ""), startShard(t, held, "")}
	t.Cleanup(release) // before the shards' drains, which apply the queue
	coord, reg := startCoordinator(t, vertices, shards)
	ctl := httptest.NewServer(ClusterHandler(coord, reg))
	defer ctl.Close()

	// failing waits until graphctl's /readyz is 503 with exactly the given
	// shard check failing, naming want, and returns how long that took.
	failing := func(shard int, want string) time.Duration {
		t.Helper()
		start, name := time.Now(), fmt.Sprintf("shard-%d", shard)
		var rd wire.Readiness
		waitFor(t, 5*time.Second, name+" to fail", func() bool {
			return getAnyJSON(t, ctl.URL, "/readyz", &rd) == http.StatusServiceUnavailable
		})
		for _, c := range rd.Checks {
			if fail := c.Name == name; c.OK == fail || fail && !strings.Contains(c.Detail, want) {
				t.Fatalf("readyz checks %+v, want only %s failing, naming %q", rd.Checks, name, want)
			}
		}
		return time.Since(start)
	}
	ready := func(what string) {
		t.Helper()
		waitFor(t, 5*time.Second, what, func() bool { return getAnyJSON(t, ctl.URL, "/readyz", nil) == http.StatusOK })
	}
	ready("graphctl ready")

	// Shard 1's ingest loop is held: once it stalls at the gate with the
	// first edits it took, the topped-up queue stays past the high-water
	// fraction.
	edits := make([]dyngraph.Edit, 2*held.QueueCap)
	for i := range edits {
		edits[i] = dyngraph.Edit{Src: int32(i % 8), Dst: int32((i + 7) % 8)}
	}
	waitFor(t, 5*time.Second, "shard 1's full queue to show", func() bool {
		shards[1].s.enqueue(edits)
		return getAnyJSON(t, ctl.URL, "/readyz", nil) == http.StatusServiceUnavailable
	})
	failing(1, "ingest-queue")
	release()
	ready("the released shard to be ready again")

	// A planned drain of shard 0 shows within a few poll intervals.
	shards[0].s.BeginDrain()
	if d := failing(0, "draining"); d > 10*poll {
		t.Errorf("graphctl saw the drain after %v, want within a few %v poll intervals", d, poll)
	}
	if st := coord.Stats(); st.Ready != 1 || st.ShardInfo[0].Ready || !st.ShardInfo[0].Reachable {
		t.Fatalf("stats during the drain: %+v, want shard 0 reachable but not ready", st)
	}
}

// TestSLOBreachDrill is the end-to-end incident drill from the issue: an
// artificially slow workload drives a latency objective into breaching
// within one fast window; /readyz reports the failing slo check; exactly
// one rate-limited profile bundle is captured carrying the trace IDs that
// were in flight; and when the slow load stops, the objective returns to
// ok and /readyz to 200.
func TestSLOBreachDrill(t *testing.T) {
	cfg := testConfig(256)
	cfg.queryDelay = 20 * time.Millisecond // every query blows the target
	cfg.SLOObjectives = []slo.Objective{{Endpoint: "topdegree", P99: time.Millisecond}}
	cfg.sloFast = 300 * time.Millisecond
	cfg.sloSlow = 900 * time.Millisecond
	cfg.sloPeriod = 50 * time.Millisecond
	cfg.ProfileTriggers = true
	cfg.profCPU = 50 * time.Millisecond
	cfg.profMinInterval = time.Hour // exactly one bundle per drill
	cfg.ProfileDir = t.TempDir()
	s, ts := startServer(t, cfg)

	// Slow load with a client-supplied traceparent, so the captured bundle
	// can be tied back to requests we sent. Parent must be nonzero for the
	// header to be well-formed.
	tc := telemetry.NewTraceContext()
	tc.Parent = 1
	client := &http.Client{Timeout: 10 * time.Second}
	sendOne := func() {
		req, _ := http.NewRequest("GET", ts.URL+"/query/topdegree?k=3", nil)
		req.Header.Set("traceparent", tc.Traceparent())
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	start := time.Now()
	breachDeadline := start.Add(5 * time.Second)
	for s.slo.Worst() != slo.StateBreaching {
		if time.Now().After(breachDeadline) {
			t.Fatalf("objective never breached; status %+v", s.SLOStatus())
		}
		sendOne()
	}
	timeToBreach := time.Since(start)
	// Both windows carry only bad traffic from t=0, so the multi-window
	// rule confirms within roughly one fast window plus an evaluation
	// period; 3× fast window plus slack is a generous CI bound.
	if timeToBreach > 3*cfg.sloFast+time.Second {
		t.Errorf("breach took %v, want about one fast window (%v)", timeToBreach, cfg.sloFast)
	}

	// /readyz reports the failing slo check while breaching.
	var rd wire.Readiness
	if code := getAnyJSON(t, ts.URL, "/readyz", &rd); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while breaching = %d, want 503", code)
	}
	if c := readyCheck(t, rd, "slo"); c.OK || !strings.Contains(c.Detail, "topdegree") {
		t.Fatalf("slo check while breaching: %+v", c)
	}

	// /debug/slo serves the breaching evaluation as JSON over HTTP.
	var st slo.Status
	if code := getAnyJSON(t, ts.URL, "/debug/slo", &st); code != http.StatusOK {
		t.Fatalf("/debug/slo = %d, want 200", code)
	}
	if !st.Enabled || st.Worst != "breaching" {
		t.Fatalf("/debug/slo payload: %+v", st)
	}

	// Exactly one rate-limited bundle, reason slo:topdegree, stamped with
	// the trace identity our slow requests carried.
	waitFor(t, 10*time.Second, "profile bundle capture", func() bool {
		return len(s.ProfileBundles()) >= 1 && !s.prof.Capturing()
	})
	bundles := s.ProfileBundles()
	if len(bundles) != 1 {
		t.Fatalf("got %d bundles, want exactly 1 (rate-limited)", len(bundles))
	}
	b := bundles[0]
	if b.Reason != "slo:topdegree" {
		t.Fatalf("bundle reason %q, want slo:topdegree", b.Reason)
	}
	found := false
	for _, id := range b.TraceIDs {
		if id == tc.TraceID.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle trace ids %v do not include the breaching trace %s", b.TraceIDs, tc.TraceID)
	}
	if b.Path == "" || b.HeapBytes == 0 {
		t.Fatalf("bundle not fully captured: %+v", b)
	}
	// The bundle index is also served over HTTP.
	var idx struct {
		Enabled bool              `json:"enabled"`
		Bundles []prof.BundleMeta `json:"bundles"`
	}
	if code := getAnyJSON(t, ts.URL, "/debug/profiles", &idx); code != http.StatusOK || !idx.Enabled || len(idx.Bundles) != 1 {
		t.Fatalf("/debug/profiles index wrong: code %d %+v", code, idx)
	}

	// Load stops: the fast window clears and the objective de-escalates;
	// /readyz returns to 200.
	waitFor(t, 10*time.Second, "recovery to ok", func() bool {
		return s.slo.Worst() == slo.StateOK
	})
	if code := getAnyJSON(t, ts.URL, "/readyz", &rd); code != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz after recovery = %d ready=%v, want 200 ready", code, rd.Ready)
	}
	if got := len(s.ProfileBundles()); got != 1 {
		t.Fatalf("extra bundles captured after recovery: %d", got)
	}
}

// TestSlowQueryTriggersProfile: crossing the slow-query threshold fires
// the profiler with the request's own trace stamped on the bundle.
func TestSlowQueryTriggersProfile(t *testing.T) {
	cfg := testConfig(64)
	cfg.queryDelay = 10 * time.Millisecond
	cfg.SlowQueryThreshold = time.Millisecond
	cfg.ProfileTriggers = true
	cfg.profCPU = 20 * time.Millisecond
	cfg.profMinInterval = time.Hour
	s, ts := startServer(t, cfg)

	tc := telemetry.NewTraceContext()
	tc.Parent = 1
	req, _ := http.NewRequest("GET", ts.URL+"/query/topdegree?k=1", nil)
	req.Header.Set("traceparent", tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	waitFor(t, 10*time.Second, "slow-query bundle", func() bool {
		return len(s.ProfileBundles()) >= 1 && !s.prof.Capturing()
	})
	b := s.ProfileBundles()[0]
	if b.Reason != "slowquery:topdegree" {
		t.Fatalf("bundle reason %q, want slowquery:topdegree", b.Reason)
	}
	if len(b.TraceIDs) != 1 || b.TraceIDs[0] != tc.TraceID.String() {
		t.Fatalf("bundle traces %v, want [%s]", b.TraceIDs, tc.TraceID)
	}
}

// TestDebugSLODisabled: a daemon with no objectives serves a valid
// disabled payload at /debug/slo and a disabled /debug/profiles index —
// probes never 404. An objective on an endpoint graphd never serves, which
// would read ok forever, is refused at New with the valid endpoints.
func TestDebugSLODisabled(t *testing.T) {
	bad := testConfig(64)
	bad.SLOObjectives = []slo.Objective{{Endpoint: "componet", P99: 5 * time.Millisecond}}
	if s, err := New(bad); err == nil {
		s.Shutdown(context.Background())
		t.Fatal("New accepted an SLO on endpoint \"componet\"")
	} else if !strings.Contains(err.Error(), `"componet"`) || !strings.Contains(err.Error(), "component") {
		t.Fatalf("New error %q does not name the bad endpoint and the valid ones", err)
	}

	_, ts := startServer(t, testConfig(64))
	var st slo.Status
	if code := getAnyJSON(t, ts.URL, "/debug/slo", &st); code != http.StatusOK {
		t.Fatalf("/debug/slo = %d, want 200", code)
	}
	if st.Enabled || st.Worst != "ok" {
		t.Fatalf("disabled /debug/slo payload: %+v", st)
	}
	var idx struct {
		Enabled bool `json:"enabled"`
	}
	if code := getAnyJSON(t, ts.URL, "/debug/profiles", &idx); code != http.StatusOK || idx.Enabled {
		t.Fatalf("/debug/profiles on plain daemon: code %d %+v", code, idx)
	}
}

// TestDisabledSLOAllocationFree proves the observability hooks riding the
// request hot path cost zero allocations when SLOs and profiling are off
// (the default): the watermark observes, the nil-profiler gates, and the
// nil-evaluator consults.
func TestDisabledSLOAllocationFree(t *testing.T) {
	cfg := testConfig(64)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if s.slo != nil || s.prof.Enabled() {
		t.Fatal("default config enabled SLO or profiling")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.m.depthHWM.observe(7)
		s.m.inflightHWM.observe(3)
		if s.prof.Enabled() {
			panic("nil profiler enabled")
		}
		if s.prof.Trigger("x", nil) {
			panic("nil profiler accepted a trigger")
		}
		if s.slo.Worst() != slo.StateOK {
			panic("nil evaluator not ok")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled SLO/profiling hooks allocate %.1f per op, want 0", allocs)
	}
}
