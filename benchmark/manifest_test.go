package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	var got []string
	for k := range top {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json has keys %v, want exactly %v", got, want)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTheProgram is the guard against a manifest the driver
// refuses: every limit of the contract, and the names on both sides equal.
func TestManifestMatchesTheProgram(t *testing.T) {
	m := readManifest(t)
	if !slices.Equal(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	if len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(m.Command))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	// The driver's budget: 4 + 22 per workload runs and two builds in 3,420s.
	// An untraced run takes its measured seconds plus at most 6 (generation,
	// oracle, three boots, checking), a traced one plus at most 20 (the layer
	// probes); a build from an empty cache takes 20s here, 90 are allowed for.
	runs := 22 * len(m.Workloads)
	if need, budget := runs*(m.RunSeconds+6)+4*(m.RunSeconds+20)+2*90, 3420; need > budget {
		t.Errorf("%d runs of %ds do not fit the driver's %ds: they need about %ds", runs+4, m.RunSeconds, budget, need)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside ^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program, want equal and 2..8", n, len(workloads))
	}
	for i, w := range m.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q in the manifest, %q in the program (or their whys differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, ok := workloadFuncs[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}

	if n := len(m.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program, want equal and 1..16", n, len(endToEnd))
	}
	hasSetup := false
	for i, mm := range m.EndToEnd {
		unique(mm.Name)
		d := endToEnd[i]
		if mm.Bound == nil || mm.Name != d.Name || mm.Unit != d.Unit || mm.Better != d.Better || *mm.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, mm, d)
			continue
		}
		if *mm.Bound <= 0 || *mm.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", mm.Name, *mm.Bound)
		}
		if !unitRE.MatchString(mm.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", mm.Name, mm.Unit)
		}
		if mm.Better != "lower" && mm.Better != "higher" {
			t.Errorf("%s: better %q", mm.Name, mm.Better)
		}
		if mm.Name == "setup_s" && mm.Unit == "s" && mm.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}

	if n := len(m.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program, want equal and 1..128", n, len(perLayer))
	}
	for i, mm := range m.PerLayer {
		unique(mm.Name)
		d := perLayer[i]
		if mm.Bound != nil || mm.Name != d.Name || mm.Unit != d.Unit || mm.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, program %+v (per-layer metrics have no bound)", i, mm, d.metricDef)
		}
		if !unitRE.MatchString(mm.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", mm.Name, mm.Unit)
		}
	}
}

// TestPredictionsNameRealThings checks the layer -> system metric prediction
// table: every "should move" entry names one of the six system metrics,
// each of which is end-to-end or was demoted to the system layer, and a
// workload that exists.
func TestPredictionsNameRealThings(t *testing.T) {
	system := map[string]bool{}
	for _, m := range endToEnd {
		system[m.Name] = true
	}
	for _, m := range perLayer {
		if m.Layer == systemLayer {
			system[m.Name] = true
		}
	}
	for _, name := range []string{mSetup, mOps, mP50, mP99, mCPU, mAllocKB} {
		if !system[name] {
			t.Errorf("system metric %s is neither end-to-end nor in the %s layer", name, systemLayer)
		}
	}
	if len(system) != 6 {
		t.Errorf("%d system metrics, want the six of the issue: %v", len(system), system)
	}
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.Name] = true
	}
	for _, m := range perLayer {
		if m.Layer == "" || len(m.On) == 0 {
			t.Errorf("%s: no layer or no workload", m.Name)
		}
		for _, name := range m.Moves {
			if !system[name] {
				t.Errorf("%s should move %q, which is not a system metric", m.Name, name)
			}
		}
		for _, name := range m.On {
			if !wl[name] {
				t.Errorf("%s should move on %q, which is not a workload", m.Name, name)
			}
		}
	}
}
