package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/incr"
	"repro/internal/kernels"
	"repro/internal/streaming"
	"repro/internal/telemetry"
)

// streamsCmd exercises the Firehose-style streaming anomaly kernels
// (experiment E9): fixed-key, unbounded-key, and two-level-key detectors
// over biased-key streams with planted anomalies, reporting throughput and
// detection quality, plus the incremental graph kernels (triangle counting,
// connected components, streaming Jaccard) over edge-update streams. Its
// metrics keep the streambench_ names they had as a command of their own.
func streamsCmd(fs *flag.FlagSet) (func() error, func(*telemetry.Registry) error) {
	items := fs.Int("items", 1_000_000, "stream items per anomaly kernel")
	updates := fs.Int("updates", 200_000, "edge updates for graph kernels")
	check := func() error {
		if *items <= 0 {
			return fmt.Errorf("-items must be positive, got %d", *items)
		}
		if *updates <= 0 {
			return fmt.Errorf("-updates must be positive, got %d", *updates)
		}
		return nil
	}
	return check, func(reg *telemetry.Registry) error {
		anomalies(reg, *items)
		return graphStreams(reg, *updates)
	}
}

// detector is one Firehose anomaly kernel.
type detector interface {
	Ingest(gen.StreamItem) *streaming.AnomalyEvent
	Events() []streaming.AnomalyEvent
}

func anomalies(reg *telemetry.Registry, n int) {
	fmt.Println("== E9: Firehose-style anomaly kernels ==")
	tb := bench.NewTable("kernel", "items", "time", "rate", "decided", "flagged", "precision")
	truth := make(map[uint64]bool)

	// keyOf maps a stream item to the key its truth and events live at;
	// decided points at the detector's decision count.
	run := func(name string, next func() gen.StreamItem, keyOf func(gen.StreamItem) uint64, d detector, decided *int64) {
		clear(truth)
		kl := telemetry.L("kernel", name)
		sp := reg.Tracer().Start("streambench.anomaly", kl)
		defer sp.End()
		start := time.Now()
		for i := 0; i < n; i++ {
			it := next()
			truth[keyOf(it)] = it.Truth
			d.Ingest(it)
		}
		elapsed := time.Since(start)
		reg.Counter("streambench_anomaly_items_total", kl).Add(int64(n))
		reg.Histogram("streambench_anomaly_seconds", kl).Observe(elapsed.Seconds())
		var tp, fp int64
		for _, ev := range d.Events() {
			if truth[ev.Key] {
				tp++
			} else {
				fp++
			}
		}
		prec := 1.0
		if tp+fp > 0 {
			prec = float64(tp) / float64(tp+fp)
		}
		reg.Gauge("streambench_anomaly_decided", kl).Set(float64(*decided))
		reg.Gauge("streambench_anomaly_flagged", kl).Set(float64(tp + fp))
		reg.Gauge("streambench_anomaly_precision", kl).Set(prec)
		tb.Add(name, n, elapsed.Round(time.Millisecond).String(),
			bench.Rate(int64(n), elapsed), *decided, tp+fp, fmt.Sprintf("%.3f", prec))
	}

	innerKey := func(it gen.StreamItem) uint64 { return it.Key }
	fk := streaming.NewFixedKeyAnomaly(17)
	run("fixed-key", gen.NewBiasedKeyStream(1<<18, 0.02, 0.5, 31).Next, innerKey, fk, &fk.Decided)
	uk := streaming.NewUnboundedKeyAnomaly()
	run("unbounded-key", gen.NewBiasedKeyStream(1<<18, 0.02, 0.5, 31).Next, innerKey, uk, &uk.Decided)
	two := gen.NewTwoLevelStream(1<<18, 1<<10, 0.02, 0.5, 31)
	tl := streaming.NewTwoLevelAnomaly(two.OuterKey)
	run("two-level-key", two.Next, func(it gen.StreamItem) uint64 { return two.OuterKey(it.Key) }, tl, &tl.Decided)

	tb.Render(os.Stdout)
	fmt.Println()

	// Streaming "search for largest": Space-Saving heavy hitters over the
	// same biased stream, fixed 256 counters.
	hh := streaming.NewHeavyHitters(256)
	s := gen.NewBiasedKeyStream(1<<18, 0.02, 0.5, 31)
	start := time.Now()
	for i := 0; i < n; i++ {
		hh.Ingest(s.Next().Key)
	}
	el := time.Since(start)
	reg.Counter("streambench_anomaly_items_total", telemetry.L("kernel", "heavy-hitters")).Add(int64(n))
	reg.Histogram("streambench_anomaly_seconds", telemetry.L("kernel", "heavy-hitters")).Observe(el.Seconds())
	top := hh.Top(5)
	fmt.Printf("heavy hitters (space-saving, 256 counters): %s; top-5:", bench.Rate(int64(n), el))
	for _, e := range top {
		fmt.Printf(" %d(%d±%d)", e.Key, e.Count, e.Err)
	}
	fmt.Printf("\nguaranteed-top-3: %d keys provable\n\n", len(hh.GuaranteedTop(3)))
}

// streamVertices is the vertex range of the edge-update streams.
const streamVertices = 1 << 16

func graphStreams(reg *telemetry.Registry, n int) error {
	fmt.Println("== incremental graph kernels over edge-update streams ==")
	ups := gen.EdgeUpdateStream(16, n, 0.1, 77)
	tb := bench.NewTable("kernel", "updates", "time", "rate", "result")

	record := func(kernel string, updates int, el time.Duration) {
		kl := telemetry.L("kernel", kernel)
		reg.Counter("streambench_graph_updates_total", kl).Add(int64(updates))
		reg.Histogram("streambench_graph_seconds", kl).Observe(el.Seconds())
	}

	tc := streaming.NewTriangleCounter(dyngraph.New(streamVertices, false))
	start := time.Now()
	for _, u := range ups {
		tc.Apply(u)
	}
	el := time.Since(start)
	record("inc-triangles", n, el)
	tb.Add("inc-triangles", n, el.Round(time.Millisecond).String(), bench.Rate(int64(n), el),
		fmt.Sprintf("triangles=%d", tc.Count))

	start = time.Now()
	cc, err := incrWCC(ups, streamVertices, ingestBatch)
	if err != nil {
		return err
	}
	el = time.Since(start)
	record("inc-wcc", n, el)
	tb.Add("inc-wcc", n, el.Round(time.Millisecond).String(), bench.Rate(int64(n), el),
		fmt.Sprintf("components=%d", cc.NumComponents))

	// Streaming Jaccard evaluates both endpoints' 2-hop neighborhoods per
	// update — the paper's "near quadratic" caveat — so run a prefix. Its
	// per-update latencies land in streaming_jaccard_update_seconds.
	jn := n / 5
	sj := streaming.NewStreamingJaccard(dyngraph.New(streamVertices, false)).Instrument(reg)
	start = time.Now()
	for _, u := range ups[:jn] {
		sj.ApplyUpdate(u)
	}
	el = time.Since(start)
	record("stream-jaccard", jn, el)
	tb.Add("stream-jaccard", jn, el.Round(time.Millisecond).String(), bench.Rate(int64(jn), el),
		"max-coefficient tracking per update")

	tb.Render(os.Stdout)
	return nil
}

// ingestBatch is graphd's default -batch: the edits its writer applies per
// version.
const ingestBatch = 1024

// incrWCC maintains connected components over ups the way graphd's writer
// does, one version per batch of size edits: apply the batch to the dynamic
// graph, patch the CSR snapshot over the touched vertices, and advance the
// incremental WCC state over it. A per-edge update is a batch of one. It
// returns the components after the last batch.
func incrWCC(ups []gen.EdgeUpdate, n int32, size int) (*kernels.CCResult, error) {
	dg := dyngraph.New(n, false)
	st := incr.NewWCCState(n)
	g := dg.Snapshot()
	cc := kernels.WCC(g)
	edits := make([]dyngraph.Edit, 0, size)
	for v := int64(1); len(ups) > 0; v++ {
		k := min(size, len(ups))
		edits = edits[:0]
		for _, u := range ups[:k] {
			edits = append(edits, dyngraph.Edit{Src: u.Src, Dst: u.Dst, Weight: 1, Time: u.Time, Delete: u.Delete})
		}
		ups = ups[k:]
		res := dg.ApplyEdits(edits)
		batch := []incr.Batch{{Version: v, Edits: edits, HadDeletes: res.Deleted > 0}}
		g = dg.SnapshotDelta(g, incr.TouchedVertices(batch, n))
		st.Release(cc)
		var err error
		if cc, err = st.Advance(context.Background(), g, v, batch); err != nil {
			return nil, err
		}
	}
	return cc, nil
}
