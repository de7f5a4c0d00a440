package obsv

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/par"
	"repro/internal/telemetry"
)

// Account is one code region's resource bill: the measured analogue of a
// NORA model step's four-resource demand vector. Wall time and items give
// throughput (TEPS when items are edges); allocation and GC figures proxy
// the memory axis; scheduler totals attribute parallel activity.
type Account struct {
	Op   string        `json:"op"`
	Wall time.Duration `json:"wall_ns"`
	// Items is the caller-declared work unit count (edges for graph
	// kernels, multiplies for SpGEMM, updates for streaming).
	Items int64 `json:"items"`
	// Heap deltas over the region, from runtime.MemStats. AllocBytes is
	// total bytes allocated (not live), the model's memory-traffic proxy.
	AllocBytes   int64 `json:"alloc_bytes"`
	AllocObjects int64 `json:"alloc_objects"`
	GCCycles     int64 `json:"gc_cycles"`
	// Parallel-scheduler activity attributed to the region.
	ParInvocations int64 `json:"par_invocations"`
	ParTasks       int64 `json:"par_tasks"`
	ParChunks      int64 `json:"par_chunks"`
}

// TEPS returns items per second of wall time (the Graph500 figure of merit
// when items are traversed edges); 0 when unmeasurable.
func (a Account) TEPS() float64 {
	if a.Wall <= 0 {
		return 0
	}
	return float64(a.Items) / a.Wall.Seconds()
}

// SpanAttrs renders the account as span attributes, so a -trace-out
// artifact carries each kernel invocation's resource bill inline.
func (a Account) SpanAttrs() []telemetry.Label {
	return []telemetry.Label{
		telemetry.L("wall_ns", fmt.Sprint(a.Wall.Nanoseconds())),
		telemetry.L("items", fmt.Sprint(a.Items)),
		telemetry.L("teps", fmt.Sprintf("%.4g", a.TEPS())),
		telemetry.L("alloc_bytes", fmt.Sprint(a.AllocBytes)),
		telemetry.L("alloc_objects", fmt.Sprint(a.AllocObjects)),
		telemetry.L("gc_cycles", fmt.Sprint(a.GCCycles)),
		telemetry.L("par_invocations", fmt.Sprint(a.ParInvocations)),
		telemetry.L("par_chunks", fmt.Sprint(a.ParChunks)),
	}
}

// Publish records the account into reg under obsv_account_* gauge families
// labeled op=Account.Op plus any extra labels.
func (a Account) Publish(reg *telemetry.Registry, extra ...telemetry.Label) {
	ls := append([]telemetry.Label{telemetry.L("op", a.Op)}, extra...)
	set := func(name string, v float64) { reg.Gauge(name, ls...).Set(v) }
	set("obsv_account_wall_seconds", a.Wall.Seconds())
	set("obsv_account_items", float64(a.Items))
	set("obsv_account_teps", a.TEPS())
	set("obsv_account_alloc_bytes", float64(a.AllocBytes))
	set("obsv_account_alloc_objects", float64(a.AllocObjects))
	set("obsv_account_gc_cycles", float64(a.GCCycles))
	set("obsv_account_par_invocations", float64(a.ParInvocations))
	set("obsv_account_par_tasks", float64(a.ParTasks))
	set("obsv_account_par_chunks", float64(a.ParChunks))
}

// Meter captures an Account as a delta between StartMeter and Stop. It
// reads runtime.MemStats at both edges, which is micro-seconds of cost —
// negligible at kernel granularity, unsuitable inside per-item hot loops.
type Meter struct {
	op    string
	start time.Time
	mem   runtime.MemStats
	par   par.Totals
}

// StartMeter snapshots the region start.
func StartMeter(op string) *Meter {
	m := &Meter{op: op, par: par.TotalsSnapshot()}
	runtime.ReadMemStats(&m.mem)
	m.start = time.Now() // last, so the MemStats read isn't billed as wall
	return m
}

// Stop closes the region and returns its account. items is the work-unit
// count the caller attributes to the region (may be 0 when unknown).
func (m *Meter) Stop(items int64) Account {
	wall := time.Since(m.start)
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	pd := par.TotalsSnapshot().Sub(m.par)
	return Account{
		Op:             m.op,
		Wall:           wall,
		Items:          items,
		AllocBytes:     int64(end.TotalAlloc - m.mem.TotalAlloc),
		AllocObjects:   int64(end.Mallocs - m.mem.Mallocs),
		GCCycles:       int64(end.NumGC - m.mem.NumGC),
		ParInvocations: pd.Invocations,
		ParTasks:       pd.Tasks,
		ParChunks:      pd.Chunks,
	}
}
