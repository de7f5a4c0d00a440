// Telemetry overhead benchmarks: each pair runs the same workload against a
// live registry and against the no-op registry (telemetry.Nop), so
//
//	go test -bench=BenchmarkTelemetry -benchtime=5x
//
// quantifies what the instrumentation costs on the hot paths the ISSUE
// budget caps at 5%: the PR batch kernel via core.RunWith and the streaming
// engine's per-update path.
package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/slo"
	"repro/internal/streaming"
	"repro/internal/telemetry"
)

func benchPageRank(b *testing.B, reg *telemetry.Registry) {
	g := getBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunWith(reg, "PR", g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTelemetryPageRankInstrumented(b *testing.B) {
	benchPageRank(b, telemetry.NewRegistry())
}

func BenchmarkTelemetryPageRankNoop(b *testing.B) {
	benchPageRank(b, telemetry.Nop())
}

func benchStreamingApply(b *testing.B, reg *telemetry.Registry) {
	ups := gen.EdgeUpdateStream(14, 100_000, 0.1, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := streaming.NewEngineWith(dyngraph.New(1<<14, false), reg)
		b.StartTimer()
		for _, u := range ups {
			e.Apply(u)
		}
	}
	b.SetBytes(0)
	b.ReportMetric(float64(len(ups)), "updates/op")
}

func BenchmarkTelemetryStreamingApplyInstrumented(b *testing.B) {
	benchStreamingApply(b, telemetry.NewRegistry())
}

func BenchmarkTelemetryStreamingApplyNoop(b *testing.B) {
	benchStreamingApply(b, telemetry.Nop())
}

// BenchmarkTelemetryCounterInc measures the raw hot-path cost of one
// counter increment (live vs no-op).
func BenchmarkTelemetryCounterInc(b *testing.B) {
	c := telemetry.NewRegistry().Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkTelemetryCounterIncNoop(b *testing.B) {
	c := telemetry.Nop().Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("bench_seconds")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(1.25e-6)
		}
	})
}

// BenchmarkTelemetryHistogramObserveWindowed proves windowing is
// snapshot-side only: Observe on a histogram wrapped by a
// WindowedHistogram costs the same as an unwrapped one — the rotation ring
// never touches the record path.
func BenchmarkTelemetryHistogramObserveWindowed(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("bench_seconds")
	_ = telemetry.NewWindowedHistogram(h, time.Second, 8)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(1.25e-6)
		}
	})
}

// BenchmarkSLOWindowDelta measures one windowed delta read — the
// per-objective unit of SLO evaluation, running off the request path every
// evaluation period.
func BenchmarkSLOWindowDelta(b *testing.B) {
	base := time.Unix(1_700_000_000, 0)
	h := telemetry.NewRegistry().Histogram("bench_seconds")
	w := telemetry.NewWindowedHistogram(h, time.Second, 64)
	for i := 0; i < 60; i++ {
		for j := 0; j < 100; j++ {
			h.Observe(float64(j%17) * 1e-4)
		}
		w.Rotate(base.Add(time.Duration(i+1) * time.Second))
	}
	now := base.Add(61 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := w.Delta(10*time.Second, now)
		if d.CountOver(1e-3) < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkSLOEvaluatorTick measures one full evaluation tick (rotate +
// evaluate) for a three-objective engine — the whole recurring cost of
// enabling SLOs, amortized over the evaluation period.
func BenchmarkSLOEvaluatorTick(b *testing.B) {
	reg := telemetry.NewRegistry()
	clock := time.Unix(1_700_000_000, 0)
	ev, err := slo.New(slo.Config{
		Registry: reg,
		Objectives: []slo.Objective{
			{Endpoint: "component", P99: 5 * time.Millisecond},
			{Endpoint: "pagerank", P50: time.Millisecond, P99: 20 * time.Millisecond},
			{Endpoint: "ingest", Availability: 0.999},
		},
		FastWindow: 10 * time.Second,
		SlowWindow: time.Minute,
		Period:     time.Second,
		Now:        func() time.Time { return clock },
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range []string{"component", "pagerank", "ingest"} {
		h := reg.Histogram("server_query_seconds", telemetry.L("op", op))
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i%13) * 1e-4)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock = clock.Add(time.Second)
		ev.Tick()
	}
}
