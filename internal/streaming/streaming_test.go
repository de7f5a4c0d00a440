package streaming

import (
	"math"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/kernels"
)

func TestFixedKeyAnomalyDetects(t *testing.T) {
	s := gen.NewBiasedKeyStream(1<<16, 0.02, 0.5, 3)
	det := NewFixedKeyAnomaly(18) // large table: few collisions
	truth := make(map[uint64]bool)
	for i := 0; i < 200000; i++ {
		it := s.Next()
		truth[it.Key] = it.Truth
		det.Ingest(it)
	}
	if det.Decided == 0 {
		t.Fatal("no keys decided")
	}
	var stats DetectionStats
	flagged := make(map[uint64]bool)
	for _, ev := range det.Events() {
		flagged[ev.Key] = true
		if truth[ev.Key] {
			stats.TruePos++
		} else {
			stats.FalsePos++
		}
	}
	if len(det.Events()) == 0 {
		t.Fatal("no anomalies flagged")
	}
	if p := stats.Precision(); p < 0.9 {
		t.Fatalf("fixed-key precision = %.3f", p)
	}
}

func TestUnboundedKeyAnomalyExact(t *testing.T) {
	s := gen.NewBiasedKeyStream(1<<14, 0.02, 0.5, 7)
	det := NewUnboundedKeyAnomaly()
	truth := make(map[uint64]bool)
	for i := 0; i < 200000; i++ {
		it := s.Next()
		truth[it.Key] = it.Truth
		det.Ingest(it)
	}
	var stats DetectionStats
	for _, ev := range det.Events() {
		if truth[ev.Key] {
			stats.TruePos++
		} else {
			stats.FalsePos++
		}
	}
	if det.Decided == 0 || len(det.Events()) == 0 {
		t.Fatal("nothing decided/flagged")
	}
	if p := stats.Precision(); p < 0.95 {
		t.Fatalf("unbounded precision = %.3f", p)
	}
	if det.ActiveKeys() == 0 {
		t.Fatal("expected residual active keys")
	}
}

func TestUnboundedBeatsFixedOnSmallTable(t *testing.T) {
	// With a tiny fixed table, evictions destroy state; the unbounded
	// detector must decide at least as many keys.
	s1 := gen.NewBiasedKeyStream(1<<16, 0.02, 0.5, 9)
	s2 := gen.NewBiasedKeyStream(1<<16, 0.02, 0.5, 9)
	fixed := NewFixedKeyAnomaly(6) // only 64 slots
	unbounded := NewUnboundedKeyAnomaly()
	for i := 0; i < 100000; i++ {
		fixed.Ingest(s1.Next())
		unbounded.Ingest(s2.Next())
	}
	if fixed.Evicted == 0 {
		t.Fatal("tiny table should evict")
	}
	if fixed.Decided >= unbounded.Decided {
		t.Fatalf("fixed decided %d >= unbounded %d despite evictions",
			fixed.Decided, unbounded.Decided)
	}
}

func TestTwoLevelAnomaly(t *testing.T) {
	s := gen.NewTwoLevelStream(1<<16, 256, 0.05, 0.5, 5)
	det := NewTwoLevelAnomaly(s.OuterKey)
	outerTruth := make(map[uint64]bool)
	for i := 0; i < 300000; i++ {
		it := s.Next()
		outerTruth[s.OuterKey(it.Key)] = it.Truth
		det.Ingest(it)
	}
	if det.Decided == 0 {
		t.Fatal("no outer keys decided")
	}
	if len(det.Events()) == 0 {
		t.Fatal("no anomalous outer keys flagged")
	}
	var tp, fp int64
	for _, ev := range det.Events() {
		if ev.Key >= 256 {
			t.Fatalf("event key %d is not an outer key", ev.Key)
		}
		if ev.Seen < DecideAfter {
			t.Fatal("decided too early")
		}
		if outerTruth[ev.Key] {
			tp++
		} else {
			fp++
		}
	}
	if prec := float64(tp) / float64(tp+fp); prec < 0.9 {
		t.Fatalf("two-level precision = %.3f", prec)
	}
	// Recall: every anomalous outer key with enough traffic should fire at
	// least once.
	flagged := make(map[uint64]bool)
	for _, ev := range det.Events() {
		flagged[ev.Key] = true
	}
	var missed int
	for outer, anom := range outerTruth {
		if anom && !flagged[outer] {
			missed++
		}
	}
	if missed > len(flagged) {
		t.Fatalf("missed %d anomalous outer keys, flagged %d", missed, len(flagged))
	}
}

func TestTriangleCounterMatchesBatch(t *testing.T) {
	updates := gen.EdgeUpdateStream(7, 800, 0.15, 11)
	g := dyngraph.New(1<<7, false)
	tc := NewTriangleCounter(g)
	for _, u := range updates {
		tc.Apply(u)
		if tc.Count < 0 {
			t.Fatal("negative triangle count")
		}
	}
	want := kernels.GlobalTriangleCount(g.Snapshot())
	if tc.Count != want {
		t.Fatalf("incremental %d != batch %d", tc.Count, want)
	}
}

func TestTriangleCounterSeedsFromExisting(t *testing.T) {
	g := dyngraph.New(4, false)
	g.ApplyEdits([]dyngraph.Edit{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}})
	tc := NewTriangleCounter(g)
	if tc.Count != 1 {
		t.Fatalf("seed count = %d", tc.Count)
	}
	// Redundant insert: no delta.
	if d := tc.Apply(dyngraph.Edit{Src: 0, Dst: 1}); d != 0 {
		t.Fatalf("redundant insert delta = %d", d)
	}
	// Close a second triangle.
	g2 := tc.Apply(dyngraph.Edit{Src: 2, Dst: 3})
	if g2 != 0 {
		t.Fatalf("non-closing insert delta = %d", g2)
	}
	if d := tc.Apply(dyngraph.Edit{Src: 0, Dst: 3}); d != 1 {
		t.Fatalf("closing insert delta = %d", d)
	}
	if d := tc.Apply(dyngraph.Edit{Src: 0, Dst: 1, Delete: true}); d != -1 {
		t.Fatalf("delete delta = %d", d)
	}
	// Deleting absent edge: no-op.
	if d := tc.Apply(dyngraph.Edit{Src: 0, Dst: 1, Delete: true}); d != 0 {
		t.Fatalf("double delete delta = %d", d)
	}
}

func TestStreamingJaccardMatchesKernel(t *testing.T) {
	updates := gen.EdgeUpdateStream(6, 300, 0, 17)
	g := dyngraph.New(1<<6, false)
	sj := NewStreamingJaccard(g)
	for _, u := range updates {
		sj.ApplyUpdate(u)
	}
	snap := g.Snapshot()
	for v := int32(0); v < 30; v++ {
		want := kernels.JaccardFromVertex(snap, v, 0)
		got := sj.Query(v, 0)
		if len(want) != len(got) {
			t.Fatalf("vertex %d: %d vs %d partners", v, len(want), len(got))
		}
		for i := range want {
			if want[i].V != got[i].V || math.Abs(want[i].Score-got[i].Score) > 1e-12 {
				t.Fatalf("vertex %d partner %d mismatch", v, i)
			}
		}
	}
}

func TestEngineTriggers(t *testing.T) {
	g := dyngraph.New(64, false)
	e := NewEngine(g)
	e.AddTrigger(NewDegreeThresholdTrigger(3))
	var updates []dyngraph.Edit
	for w := int32(1); w <= 5; w++ {
		updates = append(updates, dyngraph.Edit{Src: 0, Dst: w, Time: int64(w)})
	}
	fired := e.ApplyAll(updates)
	if fired != 1 {
		t.Fatalf("degree trigger fired %d times, want once", fired)
	}
	ev := e.Events()[0]
	if ev.Trigger != "degree-threshold" || len(ev.Seeds) != 1 || ev.Seeds[0] != 0 {
		t.Fatalf("event = %+v", ev)
	}
	if e.Inserts() != 5 {
		t.Fatalf("inserts = %d", e.Inserts())
	}
}

func TestEngineRedundantCounting(t *testing.T) {
	g := dyngraph.New(8, false)
	e := NewEngine(g)
	e.Apply(dyngraph.Edit{Src: 0, Dst: 1})
	e.Apply(dyngraph.Edit{Src: 0, Dst: 1})               // redundant insert
	e.Apply(dyngraph.Edit{Src: 2, Dst: 3, Delete: true}) // redundant delete
	e.Apply(dyngraph.Edit{Src: 2, Dst: 2})               // self-loop, never stored
	if e.Inserts() != 1 || e.Redundant() != 3 || e.Deletes() != 0 {
		t.Fatalf("counts = %d/%d/%d", e.Inserts(), e.Deletes(), e.Redundant())
	}
	if got, want := e.Graph().NumArcs(), e.Graph().Snapshot().NumEdges(); got != want {
		t.Fatalf("graph counts %d arcs, its snapshot holds %d", got, want)
	}
}

func TestTriangleDeltaTrigger(t *testing.T) {
	g := dyngraph.New(8, false)
	e := NewEngine(g)
	e.AddTrigger(NewTriangleDeltaTrigger(2))
	// Build two wedges onto (0,1) so inserting it closes 2 triangles.
	e.ApplyAll([]dyngraph.Edit{
		{Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 0, Dst: 3}, {Src: 1, Dst: 3},
	})
	if len(e.Events()) != 0 {
		t.Fatal("premature firing")
	}
	fired := e.Apply(dyngraph.Edit{Src: 0, Dst: 1})
	if len(fired) != 1 {
		t.Fatalf("closing edge fired %d", len(fired))
	}
}

func TestJaccardThresholdTrigger(t *testing.T) {
	g := dyngraph.New(8, false)
	e := NewEngine(g)
	e.AddTrigger(NewJaccardThresholdTrigger(g, 0.99))
	e.ApplyAll([]dyngraph.Edit{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}})
	// After these, J(0,1) = 1.0 (both have exactly {2}).
	if len(e.Events()) == 0 {
		t.Fatal("jaccard trigger never fired")
	}
	ev := e.Events()[len(e.Events())-1]
	if len(ev.Seeds) != 2 {
		t.Fatalf("seeds = %v", ev.Seeds)
	}
}
