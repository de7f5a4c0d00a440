package slo

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// manualClock drives an Evaluator deterministically.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time          { return c.t }
func (c *manualClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newTestEvaluator builds an evaluator with second-scale windows over a
// fresh registry: fast 10s, slow 60s, period 1s, default burns (warn 1,
// breach 4).
func newTestEvaluator(t *testing.T, reg *telemetry.Registry, clk *manualClock, objs []Objective, onTr func(Transition)) *Evaluator {
	t.Helper()
	e, err := New(Config{
		Registry:     reg,
		Objectives:   objs,
		FastWindow:   10 * time.Second,
		SlowWindow:   60 * time.Second,
		Period:       time.Second,
		Now:          clk.now,
		OnTransition: onTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// observe records n request latencies for op on reg's latency family.
func observe(reg *telemetry.Registry, op string, n int, d time.Duration) {
	h := reg.Histogram("server_query_seconds", telemetry.L("op", op))
	for i := 0; i < n; i++ {
		h.ObserveDuration(d)
	}
}

// TestSLOStateMachine walks one latency objective through the full cycle:
// ok under good traffic, breaching when every request blows the p99
// target on both windows, back through warning to ok as the burn decays.
func TestSLOStateMachine(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &manualClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	var transitions []Transition
	e := newTestEvaluator(t, reg, clk,
		[]Objective{{Endpoint: "component", P99: 10 * time.Millisecond}},
		func(tr Transition) { transitions = append(transitions, tr) })

	// 20s of good traffic: fast requests, state stays ok.
	for i := 0; i < 20; i++ {
		observe(reg, "component", 10, time.Millisecond)
		clk.advance(time.Second)
		e.Tick()
	}
	if got := e.Worst(); got != StateOK {
		t.Fatalf("after good traffic: state %v, want ok", got)
	}

	// Total regression: every request 10x over target. Burn = 1.0/0.01 =
	// 100 on the fast window immediately; the slow window carries the good
	// history, so breach lands once its fraction crosses 4% bad.
	var breachedAfter time.Duration
	for i := 0; i < 30 && breachedAfter == 0; i++ {
		observe(reg, "component", 10, 100*time.Millisecond)
		clk.advance(time.Second)
		e.Tick()
		if e.Worst() == StateBreaching {
			breachedAfter = time.Duration(i+1) * time.Second
		}
	}
	if breachedAfter == 0 {
		t.Fatalf("never breached under total regression; status %+v", e.Status())
	}
	if breachedAfter > 10*time.Second {
		t.Fatalf("breach took %v, want within one fast window (10s)", breachedAfter)
	}

	// Load stops entirely: fast window empties first (burn 0), so the
	// objective de-escalates, and once the slow window ages out it is ok.
	for i := 0; i < 90; i++ {
		clk.advance(time.Second)
		e.Tick()
	}
	if got := e.Worst(); got != StateOK {
		t.Fatalf("after quiet period: state %v, want ok", got)
	}

	// The transition log must contain ok→...→breaching→...→ok in order.
	if len(transitions) < 2 {
		t.Fatalf("got %d transitions, want ≥2: %+v", len(transitions), transitions)
	}
	sawBreach := false
	for _, tr := range transitions {
		if tr.To == StateBreaching {
			sawBreach = true
		}
	}
	if !sawBreach || transitions[len(transitions)-1].To != StateOK {
		t.Fatalf("transition sequence wrong: %+v", transitions)
	}
}

// TestSLOWarningOnly: a partial regression that burns above warn but below
// breach settles in warning, not breaching.
func TestSLOWarningOnly(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &manualClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	e := newTestEvaluator(t, reg, clk,
		[]Objective{{Endpoint: "component", P99: 10 * time.Millisecond}}, nil)

	// 2% of requests over target: burn = 0.02/0.01 = 2 — above warn (1),
	// below breach (4) — on both windows once history is uniform.
	for i := 0; i < 90; i++ {
		observe(reg, "component", 98, time.Millisecond)
		observe(reg, "component", 2, 100*time.Millisecond)
		clk.advance(time.Second)
		e.Tick()
	}
	if got := e.Worst(); got != StateWarning {
		t.Fatalf("state %v, want warning; status %+v", got, e.Status())
	}
}

// TestSLOAvailabilityRule: 5xx responses burn the availability budget even
// when latency is fine.
func TestSLOAvailabilityRule(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &manualClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	e := newTestEvaluator(t, reg, clk,
		[]Objective{{Endpoint: "pagerank", Availability: 0.999}}, nil)

	errs := reg.Counter("server_request_errors_total", telemetry.L("op", "pagerank"))
	for i := 0; i < 30; i++ {
		observe(reg, "pagerank", 9, time.Millisecond)
		// Every 10th request fails: 10% error rate, budget 0.1% → burn 100.
		observe(reg, "pagerank", 1, time.Millisecond)
		errs.Inc()
		clk.advance(time.Second)
		e.Tick()
	}
	if got := e.Worst(); got != StateBreaching {
		t.Fatalf("state %v, want breaching; status %+v", got, e.Status())
	}
	st := e.Status()
	if len(st.Objectives) != 1 || len(st.Objectives[0].Rules) != 1 {
		t.Fatalf("status shape wrong: %+v", st)
	}
	if r := st.Objectives[0].Rules[0]; r.Rule != "availability" || r.FastBurn < 50 {
		t.Fatalf("availability rule wrong: %+v", r)
	}
}

// TestSLOEmptyWindowIsOK: no traffic at all burns nothing and never leaves
// ok — a fresh or idle daemon is not in violation.
func TestSLOEmptyWindowIsOK(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &manualClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	e := newTestEvaluator(t, reg, clk,
		[]Objective{{Endpoint: "component", P99: time.Millisecond, P50: time.Microsecond}}, nil)
	for i := 0; i < 120; i++ {
		clk.advance(time.Second)
		e.Tick()
	}
	if got := e.Worst(); got != StateOK {
		t.Fatalf("idle daemon state %v, want ok", got)
	}
	st := e.Status()
	if !st.Enabled || st.Worst != "ok" {
		t.Fatalf("status wrong: %+v", st)
	}
}

// TestSLOMetricFamilies: the evaluator exports slo_state{objective} and
// slo_burn_rate{objective,window} with the documented values.
func TestSLOMetricFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := &manualClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
	e := newTestEvaluator(t, reg, clk,
		[]Objective{{Name: "comp", Endpoint: "component", P99: 10 * time.Millisecond}}, nil)
	for i := 0; i < 70; i++ {
		observe(reg, "component", 10, 100*time.Millisecond)
		clk.advance(time.Second)
		e.Tick()
	}
	obj := telemetry.L("objective", "comp")
	if v := reg.Gauge("slo_state", obj).Value(); v != float64(StateBreaching) {
		t.Fatalf("slo_state = %v, want %v", v, float64(StateBreaching))
	}
	fast := reg.Gauge("slo_burn_rate", obj, telemetry.L("window", "fast")).Value()
	slow := reg.Gauge("slo_burn_rate", obj, telemetry.L("window", "slow")).Value()
	if fast < 4 || slow < 4 {
		t.Fatalf("burn gauges fast=%v slow=%v, want ≥ breach burn 4", fast, slow)
	}
	if n := reg.Counter("slo_transitions_total", obj, telemetry.L("to", "breaching")).Value(); n != 1 {
		t.Fatalf("slo_transitions_total{to=breaching} = %d, want 1", n)
	}
}

// TestNilEvaluator: a nil evaluator (SLOs not configured) reports a
// disabled, ok status everywhere the serving layer consults it.
func TestNilEvaluator(t *testing.T) {
	var e *Evaluator
	if e.Worst() != StateOK {
		t.Fatal("nil evaluator must be ok")
	}
	if got := e.Breaching(); got != nil {
		t.Fatalf("nil evaluator breaching = %v, want nil", got)
	}
	st := e.Status()
	if st.Enabled || st.Worst != "ok" {
		t.Fatalf("nil evaluator status = %+v", st)
	}
}

// TestParseObjective covers the -slo flag spec grammar.
func TestParseObjective(t *testing.T) {
	o, err := ParseObjective("component,p99=5ms")
	if err != nil || o.Endpoint != "component" || o.P99 != 5*time.Millisecond {
		t.Fatalf("shorthand spec: %+v, %v", o, err)
	}
	o, err = ParseObjective("endpoint=pagerank,p50=1ms,p99=20ms,avail=99.9%,name=pr")
	if err != nil || o.Name != "pr" || o.Availability < 0.9989 || o.Availability > 0.9991 {
		t.Fatalf("full spec: %+v, %v", o, err)
	}
	o, err = ParseObjective("ingest,avail=0.995")
	if err != nil || o.Availability != 0.995 {
		t.Fatalf("fraction avail: %+v, %v", o, err)
	}
	for _, bad := range []string{
		"", "component", "component,p99=-1ms", "component,avail=1.5",
		"component,bogus=1", "p99=5ms",
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("spec %q parsed, want error", bad)
		}
	}
	var f ObjectiveFlag
	if err := f.Set("component,p99=5ms"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("pagerank,p99=50ms"); err != nil {
		t.Fatal(err)
	}
	if len(f.Objectives) != 2 || f.String() == "" {
		t.Fatalf("flag accumulation wrong: %+v", f.Objectives)
	}
}

// TestEvaluatorConfigValidation: malformed configs are rejected at New.
func TestEvaluatorConfigValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	good := Objective{Endpoint: "component", P99: time.Millisecond}
	cases := []Config{
		{Objectives: []Objective{good}}, // no registry
		{Registry: reg},                 // no objectives
		{Registry: reg, Objectives: []Objective{{Endpoint: "component"}}},                                // no targets
		{Registry: reg, Objectives: []Objective{good, good}},                                             // duplicate
		{Registry: reg, Objectives: []Objective{good}, FastWindow: time.Minute, SlowWindow: time.Second}, // inverted windows
		{Registry: reg, Objectives: []Objective{good}, WarnBurn: 5, BreachBurn: 2},                       // inverted burns
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := New(Config{Registry: reg, Objectives: []Objective{good}}); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}
