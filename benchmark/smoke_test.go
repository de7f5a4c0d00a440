package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// binDir holds graphd and graphctl built from this checkout by TestMain.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		flag.Parse()
		if testing.Short() {
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "benchmark-bin-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/graphd", "./cmd/graphctl")
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building graphd and graphctl: %v\n%s", err, out)
			return 1
		}
		binDir = dir
		return m.Run()
	}())
}

// childrenOf lists live processes started from binDir.
func childrenOf(t *testing.T) []string {
	t.Helper()
	var live []string
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		raw, err := os.ReadFile(p)
		if err == nil && strings.HasPrefix(string(raw), binDir) {
			live = append(live, strings.ReplaceAll(string(raw), "\x00", " "))
		}
	}
	return live
}

func smoke(t *testing.T, workload string, traced bool) (*result, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs start real graphd children")
	}
	work := t.TempDir()
	spans := filepath.Join(work, "spans.jsonl")
	cfg := runConfig{workload: workload, seed: 7, measure: 2 * time.Second, sz: sizes["smoke"], conns: 2}
	res, err := runOnce(cfg, traced, spans, binDir, work)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("%s: %d of %d ops failed, want none of some", workload, res.failed, res.attempted)
	}
	if live := childrenOf(t); len(live) > 0 {
		t.Errorf("%s left children running: %v", workload, live)
	}
	if left, _ := filepath.Glob(filepath.Join(work, "run-*")); len(left) > 0 {
		t.Errorf("%s left scratch directories behind: %v", workload, left)
	}
	return res, spans
}

// checkEndToEnd wants all six system metrics of an untraced run, the
// bounded and the demoted ones.
func checkEndToEnd(t *testing.T, res *result) {
	t.Helper()
	for _, name := range []string{mSetup, mOps, mP50, mP99, mCPU, mAllocKB} {
		if v, ok := res.metrics[name]; !ok || !(v > 0) {
			t.Errorf("%s = %v (measured: %v), want a positive number", name, v, ok)
		}
	}
}

func TestSmokeBatchKernels(t *testing.T) {
	res, _ := smoke(t, wlBatchKernels, false)
	checkEndToEnd(t, res)
}

func TestSmokeServeRead(t *testing.T) {
	res, _ := smoke(t, wlServeRead, false)
	checkEndToEnd(t, res)
}

// TestSmokeTracedRun checks the traced run end to end: every per-layer
// metric measured, and a span file in which every parent exists, a child
// shares its parent's trace, and each op's spans share one ID.
func TestSmokeTracedRun(t *testing.T) {
	res, path := smoke(t, wlServeRead, true)
	for _, m := range perLayer {
		if _, ok := res.layer[m.Name]; !ok {
			t.Errorf("per-layer metric %s was not measured", m.Name)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int64]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span file line %q: %v", sc.Text(), err)
		}
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d is zero or used twice", s.ID)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	ops := map[int64]map[string]int{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			switch {
			case !ok:
				t.Errorf("span %d (%s): parent %d is not in the file", s.ID, s.Name, s.Parent)
			case p.Trace != s.Trace:
				t.Errorf("span %d (%s) is in trace %d, its parent in %d", s.ID, s.Name, s.Trace, p.Trace)
			case s.Start < p.Start || s.End > p.End:
				t.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
			}
		}
		if s.Trace > 0 && s.Trace < probeTrace {
			if ops[s.Trace] == nil {
				ops[s.Trace] = map[string]int{}
			}
			ops[s.Trace][strings.SplitN(s.Name, ".", 2)[0]]++
		}
	}
	if len(ops) == 0 {
		t.Fatal("no op spans in the span file")
	}
	for id, kinds := range ops {
		if kinds["op"] != 1 || kinds["client"] != 1 || kinds["verify"] != 1 {
			t.Fatalf("trace %d has spans %v, want one op root, one client call and one verify", id, kinds)
		}
	}
}
