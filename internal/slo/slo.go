package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// State is one objective's position in the alert state machine.
type State int

// Alert states, ordered by severity: the numeric values are exported as
// the slo_state{objective} gauge (0 ok, 1 warning, 2 breaching).
const (
	StateOK State = iota
	StateWarning
	StateBreaching
)

// String renders the state as its /debug/slo and log form.
func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateWarning:
		return "warning"
	case StateBreaching:
		return "breaching"
	}
	return "unknown"
}

// Objective declares the targets for one endpoint. At least one of P50,
// P99, or Availability must be set; unset targets are not evaluated.
type Objective struct {
	// Name labels the objective in metrics and /debug/slo; empty defaults
	// to the endpoint.
	Name string `json:"name"`
	// Endpoint is the serving-layer op the objective judges — the {op}
	// label of server_query_seconds and server_request_errors_total
	// ("component", "pagerank", "ingest", ...).
	Endpoint string `json:"endpoint"`
	// P50 is the median latency target (0 = not enforced): at most half of
	// requests may be slower.
	P50 time.Duration `json:"p50,omitempty"`
	// P99 is the tail latency target (0 = not enforced): at most 1% of
	// requests may be slower.
	P99 time.Duration `json:"p99,omitempty"`
	// Availability is the non-error target as a fraction in (0, 1), e.g.
	// 0.999 (0 = not enforced). Errors are 5xx responses; backpressure
	// (429) and client errors spend no budget.
	Availability float64 `json:"availability,omitempty"`
}

// label returns the objective's metric label value.
func (o Objective) label() string {
	if o.Name != "" {
		return o.Name
	}
	return o.Endpoint
}

// Validate reports whether the objective is well-formed.
func (o Objective) Validate() error {
	if o.Endpoint == "" {
		return fmt.Errorf("slo: objective %q has no endpoint", o.Name)
	}
	if o.P50 < 0 || o.P99 < 0 {
		return fmt.Errorf("slo: objective %q has a negative latency target", o.label())
	}
	if o.Availability < 0 || o.Availability >= 1 {
		if o.Availability != 0 {
			return fmt.Errorf("slo: objective %q availability %v outside (0,1)", o.label(), o.Availability)
		}
	}
	if o.P50 == 0 && o.P99 == 0 && o.Availability == 0 {
		return fmt.Errorf("slo: objective %q declares no targets", o.label())
	}
	return nil
}

// Config sizes an Evaluator. Registry and at least one objective are
// required; everything else has defaults.
type Config struct {
	// Registry is both the source (request histograms and error counters
	// are looked up by family name) and the sink (slo_* families).
	Registry *telemetry.Registry
	// Objectives are the targets to judge.
	Objectives []Objective
	// FastWindow is the incident-detection window (default 1m).
	FastWindow time.Duration
	// SlowWindow is the confirmation window (default 10m).
	SlowWindow time.Duration
	// Period is the rotation/evaluation granularity (default 10s). It
	// bounds how stale a burn rate can be and how much a window delta can
	// overshoot its nominal span.
	Period time.Duration
	// WarnBurn enters warning when both windows burn at or above it
	// (default 1: the budget is being spent faster than it accrues).
	WarnBurn float64
	// BreachBurn enters breaching when both windows burn at or above it
	// (default 4).
	BreachBurn float64
	// Now is the clock (default time.Now); tests inject a manual clock and
	// drive Tick directly.
	Now func() time.Time
	// OnTransition, when non-nil, is called synchronously from Tick for
	// every state change — the profiling trigger hooks in here.
	OnTransition func(Transition)
}

// The serving families an Evaluator reads, both labelled by endpoint: the
// latency histogram, whose window counts are also the availability
// denominator, and the 5xx counter, its numerator.
const (
	latencyFamily = "server_query_seconds"
	errorFamily   = "server_request_errors_total"
	endpointLabel = "op"
)

// Transition is one objective state change as delivered to OnTransition.
type Transition struct {
	// Objective is the objective that moved.
	Objective Objective
	// From and To are the states either side of the change.
	From, To State
	// At is the evaluation instant.
	At time.Time
	// FastBurn and SlowBurn are the burn rates that drove the change.
	FastBurn, SlowBurn float64
}

// RuleStatus is one target's evaluation inside an ObjectiveStatus.
type RuleStatus struct {
	// Rule names the target: "p50", "p99", or "availability".
	Rule string `json:"rule"`
	// Target renders the target value ("5ms", "99.9%").
	Target string `json:"target"`
	// Budget is the error budget the rule burns against.
	Budget float64 `json:"budget"`
	// FastBurn and SlowBurn are the rule's burn rates per window.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// FastBad and FastTotal are the violating and total observation counts
	// over the fast window (fractional: bucket interpolation).
	FastBad   float64 `json:"fast_bad"`
	FastTotal float64 `json:"fast_total"`
}

// ObjectiveStatus is one objective's full evaluation as served at
// /debug/slo.
type ObjectiveStatus struct {
	// Name and Endpoint identify the objective.
	Name     string `json:"name"`
	Endpoint string `json:"endpoint"`
	// State is the current alert state ("ok", "warning", "breaching").
	State string `json:"state"`
	// Since is when the objective entered its current state.
	Since time.Time `json:"since"`
	// FastBurn and SlowBurn are the objective burn rates (max over rules).
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// Rules are the per-target evaluations.
	Rules []RuleStatus `json:"rules"`
}

// Status is the /debug/slo payload.
type Status struct {
	// Enabled distinguishes a running evaluator from a daemon with no
	// objectives configured.
	Enabled bool `json:"enabled"`
	// Evaluated is the last Tick instant (zero before the first).
	Evaluated time.Time `json:"evaluated,omitempty"`
	// FastWindowSec, SlowWindowSec, PeriodSec echo the evaluator's shape.
	FastWindowSec float64 `json:"fast_window_sec,omitempty"`
	SlowWindowSec float64 `json:"slow_window_sec,omitempty"`
	PeriodSec     float64 `json:"period_sec,omitempty"`
	// WarnBurn and BreachBurn echo the thresholds.
	WarnBurn   float64 `json:"warn_burn,omitempty"`
	BreachBurn float64 `json:"breach_burn,omitempty"`
	// Worst is the most severe objective state ("ok" when none configured).
	Worst string `json:"worst"`
	// Objectives are the per-objective evaluations.
	Objectives []ObjectiveStatus `json:"objectives"`
}

// objState is one objective's evaluator-side state.
type objState struct {
	obj    Objective
	lat    *telemetry.WindowedHistogram
	errs   *telemetry.WindowedCounter // 5xx responses, for availability
	state  State
	since  time.Time
	status ObjectiveStatus

	stateG *telemetry.Gauge
	fastG  *telemetry.Gauge
	slowG  *telemetry.Gauge
}

// Evaluator judges a set of objectives from windowed telemetry deltas.
// Create with New, drive with Run (or Tick directly in tests), and read
// with Status / Worst. All methods are safe for concurrent use.
type Evaluator struct {
	cfg  Config
	mu   sync.Mutex
	objs []*objState
	last time.Time
}

// New validates the objectives and builds an evaluator over cfg.Registry's
// instrument families. The wrapped histograms are the same handles the
// serving layer observes into — windowing is snapshot-side only, so
// evaluation adds nothing to the request hot path.
func New(cfg Config) (*Evaluator, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("slo: Config.Registry is required")
	}
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = time.Minute
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 10 * time.Minute
	}
	if cfg.SlowWindow < cfg.FastWindow {
		return nil, fmt.Errorf("slo: slow window %v shorter than fast window %v", cfg.SlowWindow, cfg.FastWindow)
	}
	if cfg.Period <= 0 {
		cfg.Period = 10 * time.Second
	}
	if cfg.WarnBurn <= 0 {
		cfg.WarnBurn = 1
	}
	if cfg.BreachBurn <= 0 {
		cfg.BreachBurn = 4
	}
	if cfg.BreachBurn < cfg.WarnBurn {
		return nil, fmt.Errorf("slo: breach burn %v below warn burn %v", cfg.BreachBurn, cfg.WarnBurn)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	seen := make(map[string]bool, len(cfg.Objectives))
	// Enough boundary slots to cover the slow window at the rotation
	// period, plus slack for the current boundary.
	slots := int(cfg.SlowWindow/cfg.Period) + 2
	e := &Evaluator{cfg: cfg}
	now := cfg.Now()
	for _, o := range cfg.Objectives {
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if seen[o.label()] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.label())
		}
		seen[o.label()] = true
		epLabel := telemetry.L(endpointLabel, o.Endpoint)
		objLabel := telemetry.L("objective", o.label())
		st := &objState{
			obj:    o,
			lat:    telemetry.NewWindowedHistogram(cfg.Registry.Histogram(latencyFamily, epLabel), cfg.Period, slots),
			since:  now,
			stateG: cfg.Registry.Gauge("slo_state", objLabel),
			fastG:  cfg.Registry.Gauge("slo_burn_rate", objLabel, telemetry.L("window", "fast")),
			slowG:  cfg.Registry.Gauge("slo_burn_rate", objLabel, telemetry.L("window", "slow")),
		}
		if o.Availability > 0 {
			st.errs = telemetry.NewWindowedCounter(cfg.Registry.Counter(errorFamily, epLabel), cfg.Period, slots)
		}
		st.stateG.Set(float64(StateOK))
		e.objs = append(e.objs, st)
	}
	return e, nil
}

// Run evaluates every Config.Period until stop closes. Call in a goroutine.
func (e *Evaluator) Run(stop <-chan struct{}) {
	t := time.NewTicker(e.cfg.Period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.Tick()
		case <-stop:
			return
		}
	}
}

// Tick rotates every window and re-evaluates every objective at the
// configured clock's current instant. Exported so tests (and the serving
// layer's drain path) can force an evaluation without waiting a period.
func (e *Evaluator) Tick() {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.last = now
	for _, st := range e.objs {
		st.lat.Rotate(now)
		st.errs.Rotate(now)
		e.evaluate(st, now)
	}
}

// evaluate recomputes one objective's burn rates and advances its state
// machine. Caller holds e.mu.
func (e *Evaluator) evaluate(st *objState, now time.Time) {
	fastLat := st.lat.Delta(e.cfg.FastWindow, now)
	slowLat := st.lat.Delta(e.cfg.SlowWindow, now)

	var rules []RuleStatus
	addLatencyRule := func(name string, target time.Duration, budget float64) {
		if target <= 0 {
			return
		}
		t := target.Seconds()
		r := RuleStatus{
			Rule: name, Target: target.String(), Budget: budget,
			FastBad: fastLat.CountOver(t), FastTotal: float64(fastLat.Count),
		}
		r.FastBurn = burn(r.FastBad, r.FastTotal, budget)
		r.SlowBurn = burn(slowLat.CountOver(t), float64(slowLat.Count), budget)
		rules = append(rules, r)
	}
	addLatencyRule("p50", st.obj.P50, 0.5)
	addLatencyRule("p99", st.obj.P99, 0.01)
	if st.obj.Availability > 0 {
		budget := 1 - st.obj.Availability
		fe, ft := float64(st.errs.Delta(e.cfg.FastWindow, now)), float64(fastLat.Count)
		se, st2 := float64(st.errs.Delta(e.cfg.SlowWindow, now)), float64(slowLat.Count)
		rules = append(rules, RuleStatus{
			Rule: "availability", Target: fmt.Sprintf("%g%%", st.obj.Availability*100), Budget: budget,
			FastBurn: burn(fe, ft, budget), SlowBurn: burn(se, st2, budget),
			FastBad: fe, FastTotal: ft,
		})
	}

	var fastBurn, slowBurn float64
	for _, r := range rules {
		fastBurn = max(fastBurn, r.FastBurn)
		slowBurn = max(slowBurn, r.SlowBurn)
	}

	// Multi-window rule: both windows must agree before escalating — the
	// fast window proves it is happening now, the slow window proves it is
	// not a blip. De-escalation needs only the confirming condition to
	// lapse, so recovery is prompt once the fast window clears.
	next := StateOK
	switch {
	case fastBurn >= e.cfg.BreachBurn && slowBurn >= e.cfg.BreachBurn:
		next = StateBreaching
	case fastBurn >= e.cfg.WarnBurn && slowBurn >= e.cfg.WarnBurn:
		next = StateWarning
	}
	if next != st.state {
		tr := Transition{Objective: st.obj, From: st.state, To: next, At: now, FastBurn: fastBurn, SlowBurn: slowBurn}
		st.state = next
		st.since = now
		e.cfg.Registry.Counter("slo_transitions_total",
			telemetry.L("objective", st.obj.label()), telemetry.L("to", next.String())).Inc()
		if e.cfg.OnTransition != nil {
			e.cfg.OnTransition(tr)
		}
	}
	st.stateG.Set(float64(st.state))
	st.fastG.Set(fastBurn)
	st.slowG.Set(slowBurn)
	st.status = ObjectiveStatus{
		Name: st.obj.label(), Endpoint: st.obj.Endpoint,
		State: st.state.String(), Since: st.since,
		FastBurn: fastBurn, SlowBurn: slowBurn, Rules: rules,
	}
}

// burn is bad/total scaled by the inverse error budget; an empty window
// burns at 0 (no traffic violates nothing).
func burn(bad, total, budget float64) float64 {
	if total <= 0 || budget <= 0 {
		return 0
	}
	return bad / total / budget
}

// Worst returns the most severe state across all objectives.
func (e *Evaluator) Worst() State {
	if e == nil {
		return StateOK
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	worst := StateOK
	for _, st := range e.objs {
		if st.state > worst {
			worst = st.state
		}
	}
	return worst
}

// Breaching returns the labels of the objectives currently breaching.
func (e *Evaluator) Breaching() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, st := range e.objs {
		if st.state == StateBreaching {
			out = append(out, st.obj.label())
		}
	}
	return out
}

// Status assembles the /debug/slo payload. Safe on a nil receiver, which
// reports a disabled engine.
func (e *Evaluator) Status() Status {
	if e == nil {
		return Status{Enabled: false, Worst: StateOK.String()}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Status{
		Enabled:       true,
		Evaluated:     e.last,
		FastWindowSec: e.cfg.FastWindow.Seconds(),
		SlowWindowSec: e.cfg.SlowWindow.Seconds(),
		PeriodSec:     e.cfg.Period.Seconds(),
		WarnBurn:      e.cfg.WarnBurn,
		BreachBurn:    e.cfg.BreachBurn,
		Objectives:    make([]ObjectiveStatus, 0, len(e.objs)),
	}
	worst := StateOK
	for _, st := range e.objs {
		if st.state > worst {
			worst = st.state
		}
		if st.status.Name == "" {
			// Not yet evaluated: report the resting shape.
			s.Objectives = append(s.Objectives, ObjectiveStatus{
				Name: st.obj.label(), Endpoint: st.obj.Endpoint,
				State: st.state.String(), Since: st.since,
			})
			continue
		}
		s.Objectives = append(s.Objectives, st.status)
	}
	sort.Slice(s.Objectives, func(i, j int) bool { return s.Objectives[i].Name < s.Objectives[j].Name })
	s.Worst = worst.String()
	return s
}

// ParseObjective parses one -slo flag value. The spec is comma-separated
// key=value pairs: endpoint (required), p50/p99 (Go durations), avail
// (fraction "0.999" or percentage "99.9%"), and name. The bare first token
// is shorthand for endpoint=.
//
//	component,p99=5ms
//	endpoint=pagerank,p50=1ms,p99=20ms,avail=99.9%,name=pr-latency
func ParseObjective(spec string) (Objective, error) {
	var o Objective
	parts := strings.Split(spec, ",")
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			if i == 0 {
				o.Endpoint = p
				continue
			}
			return o, fmt.Errorf("slo: bad spec token %q (want key=value)", p)
		}
		switch k {
		case "endpoint":
			o.Endpoint = v
		case "name":
			o.Name = v
		case "p50", "p99":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return o, fmt.Errorf("slo: bad %s %q", k, v)
			}
			if k == "p50" {
				o.P50 = d
			} else {
				o.P99 = d
			}
		case "avail", "availability":
			s := strings.TrimSuffix(v, "%")
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return o, fmt.Errorf("slo: bad availability %q", v)
			}
			if s != v { // percentage form
				f /= 100
			}
			o.Availability = f
		default:
			return o, fmt.Errorf("slo: unknown spec key %q", k)
		}
	}
	if err := o.Validate(); err != nil {
		return o, err
	}
	return o, nil
}

// ObjectiveFlag is a repeatable flag.Value collecting -slo specs.
type ObjectiveFlag struct {
	// Objectives accumulates the parsed specs in flag order.
	Objectives []Objective
}

// String renders the accumulated specs (flag.Value).
func (f *ObjectiveFlag) String() string {
	if f == nil {
		return ""
	}
	parts := make([]string, len(f.Objectives))
	for i, o := range f.Objectives {
		parts[i] = o.Endpoint
	}
	return strings.Join(parts, ";")
}

// Set parses and appends one spec (flag.Value).
func (f *ObjectiveFlag) Set(spec string) error {
	o, err := ParseObjective(spec)
	if err != nil {
		return err
	}
	f.Objectives = append(f.Objectives, o)
	return nil
}
