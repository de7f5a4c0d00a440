// Command benchmark is the repo's benchmark: four workloads over graphd,
// graphctl and the batch kernels, six system metrics, and a traced run that
// prints the per-layer metrics. See README.md in this directory.
//
// It is a module of its own because the builder's contract wants a compiled
// benchmark to be a package with its own build file in its own directory;
// so nothing under ./... of the repo builds or tests it. Run it from the
// repo root with benchmark/run.sh, which builds graphd, graphctl and this
// program into .bench_build/ first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration // total measured time: closed plus open loop
	sz       sizeSpec
	conns    int // load-generator connections and par workers: nproc
	tracer   *tracer
	sb       *sandbox
}

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64 // the six system metrics
	layer     map[string]float64 // per-layer, traced runs only
}

// Closed and open loop share the measured time 2:3, the issue's 12s + 20s.
func (c *runConfig) closedDur() time.Duration { return c.measure * 2 / 5 }
func (c *runConfig) openDur() time.Duration   { return c.measure - c.closedDur() }

// closedConns is the closed loop's client count: twice the cores. With one
// client per core, each waiting for its answer, the cores the clients share
// with the servers idle a third of the time and throughput follows how fast
// the hypervisor wakes a halted CPU, which differs by a fifth from one round
// to the next; with two per core it follows the CPU cost of an op (README,
// "Calibration"). The open loop keeps one connection per core.
func (c *runConfig) closedConns() int { return 2 * c.conns }

func main() {
	os.Exit(mainExit())
}

func mainExit() int {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file")
		traceOut = flag.String("trace-out", "", "span file of the traced run (default <work>/spans.jsonl)")
		size     = flag.String("size", "full", "input size: full or smoke")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding the graphd and graphctl binaries")
		workDir  = flag.String("work", ".bench_build/tmp", "scratch directory for snapshots and child logs")
		list     = flag.Bool("list", false, "print workload and metric names and exit")
		repeat   = flag.Int("repeat", 0, "run two sets of this many runs of every workload with the same seed and compare the set medians against the bounds")
	)
	flag.Parse()
	if *list {
		printNames()
		return 0
	}
	sz, ok := sizes[*size]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -size %q\n", *size)
		return 2
	}
	base := runConfig{seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), sz: sz, conns: runtime.NumCPU()}
	if *repeat > 0 {
		return repeatSets(base, *repeat, *binDir, *workDir)
	}
	base.workload = *workload
	if *traceOut == "" {
		*traceOut = filepath.Join(*workDir, "spans.jsonl")
	}
	res, err := runOnce(base, *trace == 1, *traceOut, *binDir, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(res, *trace == 1)
	return exitCode(res)
}

// exitCode is non-zero when any operation failed: a refused, timed-out or
// wrongly answered op fails the run, whatever the metrics say.
func exitCode(res *result) int {
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed\n", res.failed, res.attempted)
		return 1
	}
	return 0
}

// runOnce runs one workload in its own sandbox. The sandbox is torn down on
// every way out: normal return, error, and SIGINT/SIGTERM.
func runOnce(cfg runConfig, traced bool, traceOut, binDir, workDir string) (*result, error) {
	run, ok := workloadFuncs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (try -list)", cfg.workload)
	}
	sb, err := newSandbox(binDir, workDir)
	if err != nil {
		return nil, err
	}
	defer sb.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			sb.close()
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()

	cfg.sb = sb
	if traced {
		cfg.tracer = newTracer()
	}
	res, err := run(&cfg)
	if err != nil {
		return res, err
	}
	if traced {
		for _, m := range perLayer {
			if m.Layer == systemLayer {
				res.layer[m.Name] = res.metrics[m.Name]
			}
		}
		if err := cfg.tracer.write(traceOut); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s; self time by span name:\n", len(cfg.tracer.spans), traceOut)
		self := selfTimes(cfg.tracer.spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Printf("#   %-40s %12.3f ms\n", name, ms(self[name]))
		}
	}
	return res, nil
}

var workloadFuncs = map[string]func(*runConfig) (*result, error){
	wlServeRead:    runServeRead,
	wlServeChurn:   runServeChurn,
	wlClusterMixed: runClusterMixed,
	wlBatchKernels: runBatch,
}

// printNames is -list: the vocabulary manifest_test.go compares with
// BENCHMARK.json.
func printNames() {
	for _, w := range workloads {
		fmt.Println("workload", w.Name)
	}
	for _, m := range endToEnd {
		fmt.Println("end_to_end", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Println("per_layer", m.Name, m.Unit, m.Better)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name with its unit, then the one JSON
// line the driver reads: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printResult(res *result, traced bool) {
	out := map[string]jsonMetric{}
	emit := func(m metricDef, vals map[string]float64, report bool) {
		v, ok := vals[m.Name]
		if !ok {
			// A missing metric is a bug in the benchmark, not a measurement.
			panic(fmt.Sprintf("metric %s was not measured", m.Name))
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // a percentile that fell among failed ops; JSON has no infinity
		}
		fmt.Printf("%-32s %14.4f %s\n", m.Name, v, m.Unit)
		if report {
			out[m.Name] = jsonMetric{v, m.Unit}
		}
	}
	if traced {
		for _, m := range perLayer {
			emit(m.metricDef, res.layer, true)
		}
	} else {
		for _, m := range endToEnd {
			emit(m, res.metrics, true)
		}
		// The demoted system metrics: every run prints them, the traced run reports them.
		for _, m := range perLayer {
			if m.Layer == systemLayer {
				emit(m.metricDef, res.metrics, false)
			}
		}
	}
	fmt.Printf("attempted %d failed %d\n", res.attempted, res.failed)
	line, _ := json.Marshal(map[string]any{ // a map of numbers and strings cannot fail to encode
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Println(string(line))
}
