package streaming

import (
	"fmt"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/telemetry"
)

// Trigger watches the update stream for conditions that warrant escalation
// to a batch analytic — the paper's "look for changes in local or global
// graph parameters, and only if those parameters exceed some threshold, use
// the modified vertices/edges as seeds into a subgraph extraction process".
//
// OnUpdate is called after the update has been applied to the graph; a
// fired trigger supplies the seed vertices for extraction.
type Trigger interface {
	Name() string
	OnUpdate(g *dyngraph.DynGraph, u dyngraph.Edit) (fired bool, seeds []int32, detail string)
}

// TriggerEvent records one trigger firing.
type TriggerEvent struct {
	Trigger string
	Seq     int64
	Seeds   []int32
	Detail  string
}

// Engine serializes stream updates into the persistent dynamic graph, one
// ApplyEdits call each, and fans each applied update out to the registered
// triggers. It is the left-hand side of Fig. 2 up to (but not including)
// the batch analytic, which internal/flow attaches. All instrumentation — insert/delete/
// redundant counts, per-update apply latency, and per-trigger firings —
// reports through an internal/telemetry registry.
type Engine struct {
	g        *dyngraph.DynGraph
	triggers []registeredTrigger
	events   []TriggerEvent
	seq      int64

	tel       *telemetry.Registry
	insertsC  *telemetry.Counter
	deletesC  *telemetry.Counter
	redundC   *telemetry.Counter
	applyHist *telemetry.Histogram
}

// registeredTrigger pairs a trigger with its pre-resolved metric handles.
type registeredTrigger struct {
	t     Trigger
	fired *telemetry.Counter
	lat   *telemetry.Histogram
}

// NewEngine wraps a dynamic graph, reporting into a private telemetry
// registry.
func NewEngine(g *dyngraph.DynGraph) *Engine {
	return NewEngineWith(g, telemetry.NewRegistry())
}

// NewEngineWith wraps a dynamic graph, reporting through the given shared
// registry (nil means uninstrumented).
func NewEngineWith(g *dyngraph.DynGraph, reg *telemetry.Registry) *Engine {
	if reg == nil {
		reg = telemetry.Nop()
	}
	return &Engine{
		g:         g,
		tel:       reg,
		insertsC:  reg.Counter("streaming_updates_total", telemetry.L("op", "insert")),
		deletesC:  reg.Counter("streaming_updates_total", telemetry.L("op", "delete")),
		redundC:   reg.Counter("streaming_updates_total", telemetry.L("op", "redundant")),
		applyHist: reg.Histogram("streaming_update_seconds"),
	}
}

// Graph exposes the underlying dynamic graph.
func (e *Engine) Graph() *dyngraph.DynGraph { return e.g }

// Telemetry returns the registry this engine reports through.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// AddTrigger registers a trigger.
func (e *Engine) AddTrigger(t Trigger) {
	l := telemetry.L("trigger", t.Name())
	e.triggers = append(e.triggers, registeredTrigger{
		t:     t,
		fired: e.tel.Counter("streaming_trigger_events_total", l),
		lat:   e.tel.Histogram("streaming_trigger_seconds", l),
	})
}

// Events returns all fired trigger events.
func (e *Engine) Events() []TriggerEvent { return e.events }

// Inserts returns the number of applied edge insertions.
func (e *Engine) Inserts() int64 { return e.insertsC.Value() }

// Deletes returns the number of applied edge deletions.
func (e *Engine) Deletes() int64 { return e.deletesC.Value() }

// Redundant returns the number of updates that added or removed no edge:
// refreshes of existing edges, deletes of absent ones, and self-loops.
func (e *Engine) Redundant() int64 { return e.redundC.Value() }

// applySampleEvery is the latency sampling period: update and trigger
// latency histograms observe one in every applySampleEvery updates. The
// clock reads would otherwise dominate the sub-microsecond apply path
// (counters stay exact; only the latency distributions are sampled).
const applySampleEvery = 64

// Apply processes one update and returns the trigger events it fired.
func (e *Engine) Apply(u dyngraph.Edit) []TriggerEvent {
	e.seq++
	var start time.Time
	timed := e.seq&(applySampleEvery-1) == 0 && e.applyHist.Live()
	if timed {
		start = time.Now()
	}
	res := e.g.ApplyEdits([]dyngraph.Edit{u})
	e.insertsC.Add(res.Inserted)
	e.deletesC.Add(res.Deleted)
	e.redundC.Add(res.Updated + res.NoOps)
	var fired []TriggerEvent
	for _, rt := range e.triggers {
		var tstart time.Time
		ttimed := timed && rt.lat.Live()
		if ttimed {
			tstart = time.Now()
		}
		ok, seeds, detail := rt.t.OnUpdate(e.g, u)
		if ttimed {
			rt.lat.ObserveSince(tstart)
		}
		if ok {
			rt.fired.Inc()
			ev := TriggerEvent{Trigger: rt.t.Name(), Seq: e.seq, Seeds: seeds, Detail: detail}
			e.events = append(e.events, ev)
			fired = append(fired, ev)
		}
	}
	if timed {
		e.applyHist.ObserveSince(start)
	}
	return fired
}

// ApplyAll processes a batch of updates, returning total fired events.
func (e *Engine) ApplyAll(updates []dyngraph.Edit) int {
	fired := 0
	for _, u := range updates {
		fired += len(e.Apply(u))
	}
	return fired
}

// DegreeThresholdTrigger fires when an endpoint's degree first crosses the
// threshold (each vertex fires at most once).
type DegreeThresholdTrigger struct {
	Threshold int32
	fired     map[int32]bool
}

// NewDegreeThresholdTrigger creates the trigger.
func NewDegreeThresholdTrigger(threshold int32) *DegreeThresholdTrigger {
	return &DegreeThresholdTrigger{Threshold: threshold, fired: make(map[int32]bool)}
}

// Name implements Trigger.
func (t *DegreeThresholdTrigger) Name() string { return "degree-threshold" }

// OnUpdate implements Trigger.
func (t *DegreeThresholdTrigger) OnUpdate(g *dyngraph.DynGraph, u dyngraph.Edit) (bool, []int32, string) {
	var seeds []int32
	for _, v := range [2]int32{u.Src, u.Dst} {
		if !t.fired[v] && g.Degree(v) >= t.Threshold {
			t.fired[v] = true
			seeds = append(seeds, v)
		}
	}
	if len(seeds) == 0 {
		return false, nil, ""
	}
	return true, seeds, fmt.Sprintf("degree >= %d", t.Threshold)
}

// TriangleDeltaTrigger maintains an incremental triangle count and fires
// when one update changes it by at least Threshold (dense local structure
// forming around the new edge).
type TriangleDeltaTrigger struct {
	Threshold int64
}

// NewTriangleDeltaTrigger creates the trigger; it shares the engine's graph
// but maintains its own count, updated from the post-apply state: the delta
// for an insert (u,v) is the common-neighbor count measured with the edge
// present, which equals the count without it since (u,v) adjacency doesn't
// affect N(u)∩N(v).
func NewTriangleDeltaTrigger(threshold int64) *TriangleDeltaTrigger {
	return &TriangleDeltaTrigger{Threshold: threshold}
}

// Name implements Trigger.
func (t *TriangleDeltaTrigger) Name() string { return "triangle-delta" }

// OnUpdate implements Trigger.
func (t *TriangleDeltaTrigger) OnUpdate(g *dyngraph.DynGraph, u dyngraph.Edit) (bool, []int32, string) {
	delta := int64(g.CommonNeighborCount(u.Src, u.Dst))
	if u.Delete {
		delta = -delta
	}
	if delta >= t.Threshold || -delta >= t.Threshold {
		return true, []int32{u.Src, u.Dst}, fmt.Sprintf("triangle delta %+d", delta)
	}
	return false, nil, ""
}

// JaccardThresholdTrigger fires when an update pushes the maximum Jaccard
// coefficient of either endpoint above the threshold — the paper's NORA
// streaming condition ("when there is the potential for crossing some
// threshold, a more complete computation of the particular metric may be
// warranted").
type JaccardThresholdTrigger struct {
	Threshold float64
	sj        *StreamingJaccard
}

// NewJaccardThresholdTrigger creates the trigger over the engine's graph.
func NewJaccardThresholdTrigger(g *dyngraph.DynGraph, threshold float64) *JaccardThresholdTrigger {
	return &JaccardThresholdTrigger{Threshold: threshold, sj: NewStreamingJaccard(g)}
}

// Name implements Trigger.
func (t *JaccardThresholdTrigger) Name() string { return "jaccard-threshold" }

// OnUpdate implements Trigger.
func (t *JaccardThresholdTrigger) OnUpdate(g *dyngraph.DynGraph, u dyngraph.Edit) (bool, []int32, string) {
	best, ok := t.sj.MaxFor(u.Src)
	if b2, ok2 := t.sj.MaxFor(u.Dst); ok2 && (!ok || b2.Score > best.Score) {
		best, ok = b2, true
	}
	if ok && best.Score >= t.Threshold {
		return true, []int32{best.U, best.V}, fmt.Sprintf("jaccard %.3f", best.Score)
	}
	return false, nil, ""
}
