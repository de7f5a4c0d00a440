package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// holdAdmission takes every admission slot of s until the test ends, so
// every query waits in its admission stage.
func holdAdmission(t *testing.T, s *Server) {
	t.Helper()
	for i := 0; i < cap(s.admit); i++ {
		s.admit <- struct{}{}
	}
	t.Cleanup(func() {
		for i := 0; i < cap(s.admit); i++ {
			<-s.admit
		}
	})
}

// admissionStages counts the admission stages component requests have
// recorded.
func admissionStages(reg *telemetry.Registry) int64 {
	return reg.Histogram("server_stage_seconds", telemetry.L("endpoint", "component"), telemetry.L("stage", "admission")).Count()
}

// TestAdmissionDeadline504: with every admission slot held, a query with a
// 20 ms deadline waits that long for a slot and no longer, answers 504 and
// records its admission stage — over HTTP, where the root span also says
// why, and over the wire.
func TestAdmissionDeadline504(t *testing.T) {
	cfg := testConfig(64)
	s, ts := startServer(t, cfg)
	c := startWire(t, s)
	holdAdmission(t, s)
	const deadline = 20 * time.Millisecond

	start := time.Now()
	code, _ := getTraced(t, ts.URL, "/query/component?v=0&timeout=20ms", clientTraceparent)
	if took := time.Since(start); code != http.StatusGatewayTimeout || took < deadline || took > 5*time.Second {
		t.Fatalf("HTTP component with every slot held = %d after %v, want 504 after about %v", code, took, deadline)
	}
	sent, _ := telemetry.ParseTraceparent(clientTraceparent)
	spans := cfg.Registry.Tracer().TraceSpans(sent.TraceID)
	roots := findSpans(spans, "server.component")
	if len(roots) != 1 || attr(roots[0], "status") != "admission-timeout" || len(findSpans(spans, "stage.admission")) != 1 {
		t.Fatalf("HTTP 504's trace lacks its admission stage or status: %+v", spans)
	}
	if n := admissionStages(cfg.Registry); n != 1 {
		t.Fatalf("admission stages after the HTTP 504 = %d, want 1", n)
	}

	start = time.Now()
	_, err := c.Component(0, deadline)
	var we *wire.Error
	if took := time.Since(start); !errors.As(err, &we) || we.Code != http.StatusGatewayTimeout || took < deadline || took > 5*time.Second {
		t.Fatalf("wire component with every slot held = %v after %v, want 504 after about %v", err, took, deadline)
	}
	if n := admissionStages(cfg.Registry); n != 2 {
		t.Fatalf("admission stages after the wire 504 = %d, want 2", n)
	}
}

// TestCancelledRequestLeavesAdmission: an HTTP query whose request context
// ends — already cancelled on arrival, or cancelled while it waits — leaves
// the admission wait then, not at its 30 s deadline.
func TestCancelledRequestLeavesAdmission(t *testing.T) {
	s, _ := startServer(t, testConfig(64))
	holdAdmission(t, s)
	h := s.Handler()
	for _, wait := range []time.Duration{0, 20 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		if wait == 0 {
			cancel()
		} else {
			time.AfterFunc(wait, cancel)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query/component?v=0&timeout=30s", nil).WithContext(ctx))
		if took := time.Since(start); rec.Code != http.StatusGatewayTimeout || took > 5*time.Second {
			t.Fatalf("cancelled after %v: %d after %v, want 504 at once", wait, rec.Code, took)
		}
		cancel()
	}
}

// TestBuildSpansOutliveTheirReader: a build's spans hang under the stage of
// the reader that asked for it, named by trace and span ID. The reader
// here times out while the build runs, and 1,000 more requests reuse its
// pooled trace and spans before the build ends; the build's spans still
// name the first reader's trace and stage. Run under -race.
func TestBuildSpansOutliveTheirReader(t *testing.T) {
	cfg := testConfig(4096)
	s, ts := startServer(t, cfg)
	ingestClique(t, s, ts, 4096)
	tr := cfg.Registry.Tracer()

	if code, _ := getTraced(t, ts.URL, "/query/pagerank?timeout=200us", clientTraceparent); code != http.StatusGatewayTimeout {
		t.Fatalf("pagerank = %d, want 504", code)
	}
	sent, _ := telemetry.ParseTraceparent(clientTraceparent)
	stages := findSpans(tr.TraceSpans(sent.TraceID), "stage.kernel")
	if len(stages) != 1 {
		t.Fatalf("the reader recorded %d stage.kernel spans, want 1", len(stages))
	}
	// Khop reads and bad requests: every pooled slot is reused, in fewer
	// spans than the ring holds.
	for i := 0; i < 1000; i++ {
		path, want := "/query/khop?v=1&k=1", http.StatusOK
		if i%2 == 1 {
			path, want = "/query/khop?v=x", http.StatusBadRequest
		}
		if code := getJSON(t, ts.URL, path, nil); code != want {
			t.Fatalf("request %d %s = %d, want %d", i, path, code, want)
		}
	}
	if code := getJSON(t, ts.URL, "/query/pagerank?v=0&timeout=30s", nil); code != http.StatusOK {
		t.Fatalf("follow-up pagerank = %d, want 200", code)
	}
	spans := tr.TraceSpans(sent.TraceID)
	for _, name := range []string{"build.pagerank", "kernel.pagerank"} {
		got := findSpans(spans, name)
		if len(got) != 1 || got[0].Parent != stages[0].ID {
			t.Errorf("%s in the reader's trace: %+v, want one under its stage %x", name, got, stages[0].ID)
		}
	}
}

// TestRetainedTraceSurvivesLaterRequests: a request's retained span tree,
// once read, reads the same after 10,000 later requests have cycled its
// pooled spans and every ring slot many times over.
func TestRetainedTraceSurvivesLaterRequests(t *testing.T) {
	cfg := testConfig(64)
	s, ts := startServer(t, cfg)
	if code, _, _ := postIngest(t, ts.URL, []wire.IngestEdit{{Src: 0, Dst: 1}}); code != http.StatusAccepted {
		t.Fatalf("ingest = %d", code)
	}
	waitApplied(t, s, 1)
	if code, _ := getTraced(t, ts.URL, "/query/component?v=0", clientTraceparent); code != http.StatusOK {
		t.Fatalf("component = %d", code)
	}
	sent, _ := telemetry.ParseTraceparent(clientTraceparent)
	tr := cfg.Registry.Tracer()
	early, dump := tr.TraceSpans(sent.TraceID), tr.TreeDump(sent.TraceID)
	if len(early) == 0 {
		t.Fatal("no spans retained for the early request")
	}
	want := make([]telemetry.SpanRecord, len(early))
	for i, r := range early {
		r.Attrs = slices.Clone(r.Attrs)
		want[i] = r
	}
	before := must(json.Marshal(dump))

	var req wire.Request
	var frame, out []byte
	for i := 0; i < 10000; i++ {
		frame = wire.AppendRequest(frame[:0], &wire.Request{Op: wire.OpComponent, V: int32(i % 2)})
		if out = s.wireRespond(frame, &req, out[:0]); out[0] != wire.StatusOK {
			t.Fatalf("request %d: status %d", i, out[0])
		}
	}
	if !reflect.DeepEqual(early, want) {
		t.Fatalf("retained records changed under later requests:\n got %+v\nwant %+v", early, want)
	}
	if after := must(json.Marshal(dump)); string(after) != string(before) {
		t.Fatalf("trace dump changed under later requests:\n got %s\nwant %s", after, before)
	}
}
