package flow

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/streaming"
	"repro/internal/telemetry"
)

// Analytic is a batch analytic run over an extracted subgraph. It returns
// named per-vertex values (indexed by subgraph-local vertex ID) that the
// flow writes back to the persistent graph, plus an optional scalar summary
// (the "output global value" class).
type Analytic func(sub *graph.Graph) (perVertex map[string][]float64, global map[string]float64)

// Alert is an event escalated to an external system.
type Alert struct {
	Source  string
	Seq     int64
	Seeds   []int32
	Global  map[string]float64
	Message string
}

// StageStats is a snapshot of one pipeline stage's instrumentation, read
// back from the telemetry registry.
type StageStats struct {
	Invocations int64
	Items       int64
	Elapsed     time.Duration
}

// stageMetrics is the registry-backed instrumentation of one stage.
type stageMetrics struct {
	inv   *telemetry.Counter
	items *telemetry.Counter
	dur   *telemetry.Histogram
}

func newStageMetrics(reg *telemetry.Registry, stage string) stageMetrics {
	l := telemetry.L("stage", stage)
	return stageMetrics{
		inv:   reg.Counter("flow_stage_invocations_total", l),
		items: reg.Counter("flow_stage_items_total", l),
		dur:   reg.Histogram("flow_stage_seconds", l),
	}
}

func (s stageMetrics) record(start time.Time, items int64) {
	s.inv.Inc()
	s.items.Add(items)
	s.dur.ObserveSince(start)
}

// snapshot reads the stage's current counters as a StageStats view.
func (s stageMetrics) snapshot() StageStats {
	return StageStats{
		Invocations: s.inv.Value(),
		Items:       s.items.Value(),
		Elapsed:     time.Duration(s.dur.Sum() * float64(time.Second)),
	}
}

// Stats aggregates the flow's per-stage instrumentation.
type Stats struct {
	Build     StageStats
	Select    StageStats
	Extract   StageStats
	Analytic  StageStats
	WriteBack StageStats
	StreamIn  StageStats
	Triggered StageStats
}

// Flow is one canonical-flow instance around a persistent graph.
type Flow struct {
	g         *dyngraph.DynGraph
	props     *graph.PropertyTable
	analytics map[string]Analytic
	engine    *streaming.Engine

	// ExtractDepth is the BFS depth used when a trigger fires.
	ExtractDepth int32
	// StreamAnalytic names the analytic run on trigger-extracted subgraphs.
	StreamAnalytic string

	mu     sync.Mutex
	alerts []Alert

	tel    *telemetry.Registry
	tracer *telemetry.Tracer
	stages struct {
		build, sel, extract, analytic, writeBack, streamIn, triggered stageMetrics
	}
	alertsC *telemetry.Counter
}

// New creates a flow whose persistent graph is bulk-loaded from base (the
// initial batch build after dedup), instrumented into a private telemetry
// registry.
func New(base *graph.Graph) *Flow {
	return NewWith(base, telemetry.NewRegistry())
}

// NewWith creates a flow around base that reports through the given shared
// telemetry registry (the cmd/ binaries pass telemetry.Default so one
// artifact captures every subsystem). The bulk load is dyngraph.FromCSRGraph,
// graphd's recovery path, and is recorded as the build stage.
func NewWith(base *graph.Graph, reg *telemetry.Registry) *Flow {
	if reg == nil {
		reg = telemetry.Nop()
	}
	start := time.Now()
	g := dyngraph.FromCSRGraph(base)
	f := &Flow{
		g:            g,
		props:        graph.NewPropertyTable(g.NumVertices()),
		analytics:    make(map[string]Analytic),
		engine:       streaming.NewEngineWith(g, reg),
		ExtractDepth: 2,
		tel:          reg,
		tracer:       reg.Tracer(),
		alertsC:      reg.Counter("flow_alerts_total"),
	}
	f.stages.build = newStageMetrics(reg, "build")
	f.stages.sel = newStageMetrics(reg, "select")
	f.stages.extract = newStageMetrics(reg, "extract")
	f.stages.analytic = newStageMetrics(reg, "analytic")
	f.stages.writeBack = newStageMetrics(reg, "write-back")
	f.stages.streamIn = newStageMetrics(reg, "stream-in")
	f.stages.triggered = newStageMetrics(reg, "triggered")
	f.stages.build.record(start, g.NumEdges())
	return f
}

// Telemetry returns the registry this flow reports through.
func (f *Flow) Telemetry() *telemetry.Registry { return f.tel }

// Graph returns the persistent dynamic graph.
func (f *Flow) Graph() *dyngraph.DynGraph { return f.g }

// Properties returns the persistent property table.
func (f *Flow) Properties() *graph.PropertyTable { return f.props }

// Engine returns the streaming engine (for registering triggers).
func (f *Flow) Engine() *streaming.Engine { return f.engine }

// Stats returns a point-in-time snapshot of the stage instrumentation,
// read from the telemetry registry's atomic counters — safe to call while
// the streaming path is concurrently feeding updates.
func (f *Flow) Stats() Stats {
	return Stats{
		Build:     f.stages.build.snapshot(),
		Select:    f.stages.sel.snapshot(),
		Extract:   f.stages.extract.snapshot(),
		Analytic:  f.stages.analytic.snapshot(),
		WriteBack: f.stages.writeBack.snapshot(),
		StreamIn:  f.stages.streamIn.snapshot(),
		Triggered: f.stages.triggered.snapshot(),
	}
}

// Alerts returns a copy of the escalated events.
func (f *Flow) Alerts() []Alert {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Alert(nil), f.alerts...)
}

// RegisterAnalytic installs a named batch analytic.
func (f *Flow) RegisterAnalytic(name string, a Analytic) { f.analytics[name] = a }

// SeedCriteria selects seed vertices ("selection criteria ... used to
// identify some initial seed entries").
type SeedCriteria struct {
	// Explicit vertices, used as-is when non-empty.
	Explicit []int32
	// TopKProperty selects the K vertices with the largest values of the
	// named persistent property.
	TopKProperty string
	K            int
	// MinDegree keeps only seeds with at least this degree.
	MinDegree int32
	// PPRExpand additionally appends the PPRExpand highest personalized-
	// PageRank vertices around the selected seeds (random-walk proximity,
	// a smarter frontier than fixed-depth BFS).
	PPRExpand int
}

// SelectSeeds evaluates the criteria against the persistent graph.
func (f *Flow) SelectSeeds(c SeedCriteria) []int32 {
	start := time.Now()
	var seeds []int32
	switch {
	case len(c.Explicit) > 0:
		seeds = append(seeds, c.Explicit...)
	case c.TopKProperty != "":
		seeds = f.props.TopK(c.TopKProperty, c.K)
	default:
		// Degree-based top-k fallback.
		scores := make([]float64, f.g.NumVertices())
		for v := int32(0); v < f.g.NumVertices(); v++ {
			scores[v] = float64(f.g.Degree(v))
		}
		k := c.K
		if k <= 0 {
			k = 1
		}
		for _, sv := range kernels.TopKByScore(scores, k) {
			seeds = append(seeds, sv.V)
		}
	}
	if c.MinDegree > 0 {
		kept := seeds[:0]
		for _, s := range seeds {
			if f.g.Degree(s) >= c.MinDegree {
				kept = append(kept, s)
			}
		}
		seeds = kept
	}
	if c.PPRExpand > 0 && len(seeds) > 0 {
		snap := f.g.Snapshot()
		for _, sv := range kernels.PPRSeeds(snap, seeds, c.PPRExpand) {
			seeds = append(seeds, sv.V)
		}
	}
	f.stages.sel.record(start, int64(len(seeds)))
	return seeds
}

// Extraction is one extracted subgraph: the physically copied smaller graph
// plus its local→global mapping and projected properties.
type Extraction struct {
	Sub      *graph.Graph
	Vertices []int32 // local ID -> persistent ID
	Props    *graph.PropertyTable
}

// Extract performs subgraph extraction: BFS out to depth hops from the
// seeds directly over the persistent dynamic graph (no full snapshot —
// cost is proportional to the extracted region, not the whole graph),
// induces the subgraph, and projects the named property columns into the
// extraction's local table.
func (f *Flow) Extract(seeds []int32, depth int32, projectNumeric []string) *Extraction {
	start := time.Now()
	// BFS over the dynamic graph.
	local := make(map[int32]int32)
	var order []int32
	var frontier []int32
	for _, s := range seeds {
		if _, ok := local[s]; !ok {
			local[s] = int32(len(order))
			order = append(order, s)
			frontier = append(frontier, s)
		}
	}
	for d := int32(0); d < depth && len(frontier) > 0; d++ {
		var next []int32
		for _, v := range frontier {
			f.g.ForEachNeighbor(v, func(w int32, _ float32, _ int64) {
				if _, ok := local[w]; !ok {
					local[w] = int32(len(order))
					order = append(order, w)
					next = append(next, w)
				}
			})
		}
		frontier = next
	}
	// Induce the subgraph over the extracted region.
	b := graph.NewBuilder(int32(len(order))).Weighted().Timestamped()
	for li, v := range order {
		f.g.ForEachNeighbor(v, func(w int32, weight float32, tm int64) {
			if lw, ok := local[w]; ok {
				b.AddEdge(graph.Edge{Src: int32(li), Dst: lw, Weight: weight, Time: tm})
			}
		})
	}
	sub := b.Build()
	if !f.g.Directed() {
		sub = markUndirected(sub)
	}
	props := f.props.Project(order, projectNumeric, nil)
	f.stages.extract.record(start, int64(len(order)))
	return &Extraction{Sub: sub, Vertices: order, Props: props}
}

// markUndirected rebuilds an arc-symmetric graph flagged undirected.
func markUndirected(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices()).Undirected().Weighted().Timestamped()
	for v := int32(0); v < g.NumVertices(); v++ {
		ns := g.Neighbors(v)
		ws := g.NeighborWeights(v)
		ts := g.NeighborTimes(v)
		for i, w := range ns {
			if w < v {
				continue
			}
			b.AddEdge(graph.Edge{Src: v, Dst: w, Weight: ws[i], Time: ts[i]})
		}
	}
	return b.Build()
}

// RunAnalytic executes a registered analytic on an extraction.
func (f *Flow) RunAnalytic(name string, ex *Extraction) (map[string][]float64, map[string]float64, error) {
	a, ok := f.analytics[name]
	if !ok {
		return nil, nil, fmt.Errorf("flow: unknown analytic %q", name)
	}
	start := time.Now()
	perVertex, global := a(ex.Sub)
	f.stages.analytic.record(start, int64(ex.Sub.NumVertices()))
	return perVertex, global, nil
}

// WriteBack copies per-vertex analytic outputs into the persistent property
// table through the extraction's ID mapping ("compute/update properties of
// vertices ... sent back to update the original persistent graph"). This is
// how persistent graphs accrete their thousands of properties.
func (f *Flow) WriteBack(ex *Extraction, perVertex map[string][]float64) {
	start := time.Now()
	var items int64
	// Deterministic column order.
	names := make([]string, 0, len(perVertex))
	for name := range perVertex {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		col := perVertex[name]
		for local, val := range col {
			f.props.SetNumeric(name, ex.Vertices[local], val)
		}
		items += int64(len(col))
	}
	f.stages.writeBack.record(start, items)
}

// RunBatch is the composed right-hand side of Fig. 2: select seeds, extract
// out to depth, run the analytic, write results back, and return the
// extraction and global outputs.
func (f *Flow) RunBatch(c SeedCriteria, depth int32, analytic string, project []string) (*Extraction, map[string]float64, error) {
	sp := f.tracer.Start("flow.RunBatch", telemetry.L("analytic", analytic))
	defer sp.End()
	seeds := f.SelectSeeds(c)
	ex := f.Extract(seeds, depth, project)
	perVertex, global, err := f.RunAnalytic(analytic, ex)
	if err != nil {
		return nil, nil, err
	}
	f.WriteBack(ex, perVertex)
	return ex, global, nil
}

// ProcessUpdates is the composed left-hand side of Fig. 2: apply each
// streaming update through the engine; when a trigger fires, extract around the trigger's
// seeds, run the configured analytic, write back its per-vertex outputs,
// and raise an alert carrying its global outputs.
func (f *Flow) ProcessUpdates(updates []dyngraph.Edit) (applied, triggered int, err error) {
	sp := f.tracer.Start("flow.ProcessUpdates")
	defer sp.End()
	for _, u := range updates {
		start := time.Now()
		events := f.engine.Apply(u)
		f.stages.streamIn.record(start, 1)
		applied++
		for _, ev := range events {
			tstart := time.Now()
			tsp := sp.Child("flow.trigger", telemetry.L("trigger", ev.Trigger))
			ex := f.Extract(ev.Seeds, f.ExtractDepth, nil)
			var global map[string]float64
			if f.StreamAnalytic != "" {
				perVertex, g, aerr := f.RunAnalytic(f.StreamAnalytic, ex)
				if aerr != nil {
					tsp.End()
					return applied, triggered, aerr
				}
				f.WriteBack(ex, perVertex)
				global = g
			}
			f.mu.Lock()
			f.alerts = append(f.alerts, Alert{
				Source: ev.Trigger, Seq: ev.Seq, Seeds: ev.Seeds, Global: global,
				Message: ev.Detail,
			})
			f.mu.Unlock()
			f.alertsC.Inc()
			f.stages.triggered.record(tstart, int64(len(ev.Seeds)))
			tsp.End()
			triggered++
		}
	}
	return applied, triggered, nil
}

// Standard analytics usable out of the box.

// PageRankAnalytic scores extracted subgraphs with PageRank.
func PageRankAnalytic(sub *graph.Graph) (map[string][]float64, map[string]float64) {
	pr, iters := kernels.PageRank(sub, kernels.DefaultPageRankOptions())
	return map[string][]float64{"pagerank": pr}, map[string]float64{"pagerank_iters": float64(iters)}
}

// TriangleAnalytic counts triangles and local clustering.
func TriangleAnalytic(sub *graph.Graph) (map[string][]float64, map[string]float64) {
	cc := kernels.ClusteringCoefficients(sub)
	total := kernels.GlobalTriangleCount(sub)
	return map[string][]float64{"clustering": cc}, map[string]float64{"triangles": float64(total)}
}

// ComponentAnalytic labels components and reports their count.
func ComponentAnalytic(sub *graph.Graph) (map[string][]float64, map[string]float64) {
	cc := kernels.WCC(sub)
	labels := make([]float64, len(cc.Label))
	for i, l := range cc.Label {
		labels[i] = float64(l)
	}
	return map[string][]float64{"component": labels}, map[string]float64{"components": float64(cc.NumComponents)}
}

// JaccardAnalytic reports the strongest pairwise relationships in the
// subgraph (the NORA-style analytic).
func JaccardAnalytic(sub *graph.Graph) (map[string][]float64, map[string]float64) {
	pairs := kernels.JaccardAll(sub, 2, 0, 64)
	best := make([]float64, sub.NumVertices())
	for _, p := range pairs {
		if p.Score > best[p.U] {
			best[p.U] = p.Score
		}
		if p.Score > best[p.V] {
			best[p.V] = p.Score
		}
	}
	global := map[string]float64{"pairs": float64(len(pairs))}
	if len(pairs) > 0 {
		global["max_jaccard"] = pairs[0].Score
	}
	return map[string][]float64{"max_jaccard": best}, global
}
