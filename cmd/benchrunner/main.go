// Command benchrunner is the continuous-benchmark harness: it runs a fixed
// kernel × graph matrix (the parallel batch kernels, SpGEMM, and streaming
// Jaccard over R-MAT and Erdős–Rényi graphs at two scales), writes a
// schema-versioned BENCH_<stamp>.json artifact with an environment
// fingerprint and per-case resource accounts, and — given a baseline file —
// exits nonzero with a regression table when any case slowed past the
// threshold.
//
// Usage:
//
//	benchrunner                          run the default matrix, write BENCH_<stamp>.json
//	benchrunner -quick                   CI-sized matrix (smaller scales, fewer reps)
//	benchrunner -baseline BENCH_baseline.json [-threshold 1.3] [-alloc-threshold 1.5]
//	benchrunner -nora=false              skip the model-vs-simulated NORA table
//
// The serving layers (graphd, graphctl, the wire protocol, snapshot
// recovery) are measured end to end by the repository benchmark in
// benchmark/, against real processes; this harness covers the kernels and
// the model/simulator packages that benchmark leaves out.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
)

func main() {
	out := flag.String("out", "", "output file (default BENCH_<stamp>.json)")
	baseline := flag.String("baseline", "", "compare against this BENCH_*.json; regressions exit nonzero")
	threshold := flag.Float64("threshold", 1.30, "regression threshold (current/baseline ns per op)")
	allocThreshold := flag.Float64("alloc-threshold", 1.50, "regression threshold (current/baseline alloc bytes)")
	quick := flag.Bool("quick", false, "CI-sized matrix: smaller scales, fewer reps")
	scales := flag.String("scales", "", "comma-separated graph scales (overrides the matrix default)")
	ef := flag.Int("ef", 0, "edge factor (0 = matrix default)")
	seed := flag.Int64("seed", 0, "generator seed (0 = matrix default)")
	reps := flag.Int("reps", 0, "repetitions per case, min wall wins (0 = matrix default)")
	kernels := flag.String("kernels", "", "comma-separated kernel subset (default all)")
	nora := flag.Bool("nora", true, "print the model-vs-simulated NORA table")
	par.RegisterFlags(flag.CommandLine)
	tel := telemetry.NewCLI(flag.CommandLine, telemetry.Default())
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	spec := obsv.DefaultMatrixSpec()
	if *quick {
		spec = obsv.QuickMatrixSpec()
	}
	if *scales != "" {
		spec.Scales = spec.Scales[:0]
		for _, s := range strings.Split(*scales, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 || v > 24 {
				fmt.Fprintf(os.Stderr, "benchrunner: bad -scales entry %q\n", s)
				os.Exit(2)
			}
			spec.Scales = append(spec.Scales, v)
		}
	}
	if *ef > 0 {
		spec.EdgeFactor = *ef
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *reps > 0 {
		spec.Reps = *reps
	}
	if *kernels != "" {
		for _, k := range strings.Split(*kernels, ",") {
			spec.Kernels = append(spec.Kernels, strings.TrimSpace(k))
		}
	}

	err := tel.Run(func() error {
		defer obsv.StartSampler(tel.Registry, 0).Stop()
		return run(tel.Registry, runOpts{
			spec: spec, out: *out, baseline: *baseline,
			threshold: *threshold, allocThreshold: *allocThreshold, nora: *nora,
		})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// errRegression distinguishes a detected slowdown (exit 1, table already
// printed) from operational failures.
type errRegression struct{ n int }

func (e errRegression) Error() string {
	return fmt.Sprintf("%d case(s) regressed past the threshold", e.n)
}

// runOpts bundles run's configuration; the flag set maps onto it 1:1.
type runOpts struct {
	spec           obsv.MatrixSpec
	out, baseline  string
	threshold      float64
	allocThreshold float64
	nora           bool
}

func run(reg *telemetry.Registry, o runOpts) error {
	spec, out, baseline := o.spec, o.out, o.baseline
	threshold, allocThreshold := o.threshold, o.allocThreshold
	stamp := time.Now().UTC().Format("2006-01-02T15-04-05Z")
	fmt.Printf("benchrunner: scales=%v ef=%d seed=%d reps=%d workers=%d\n\n",
		spec.Scales, spec.EdgeFactor, spec.Seed, spec.Reps, par.DefaultWorkers())

	cases := obsv.RunMatrix(reg, spec)

	tb := bench.NewTable("case", "ns/op", "TEPS", "alloc(MB)", "par-chunks", "gc")
	for _, c := range cases {
		tb.Add(c.Name, c.NsPerOp, fmt.Sprintf("%.3g", c.TEPS),
			fmt.Sprintf("%.1f", float64(c.Account.AllocBytes)/(1<<20)),
			c.Account.ParChunks, c.Account.GCCycles)
	}
	tb.Render(os.Stdout)

	if o.nora {
		fmt.Println()
		rep := obsv.ModelVsSimulatedNORA(perfmodel.Base2012, obsv.SimOptions{})
		rep.Render(os.Stdout)
		rep.Publish(reg)
	}

	f := obsv.NewBenchFile(stamp, cases)
	path := out
	if path == "" {
		path = "BENCH_" + stamp + ".json"
	}
	if err := f.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d cases, %s %s/%s, %d CPUs)\n",
		path, len(cases), f.Env.GoVersion, f.Env.GOOS, f.Env.GOARCH, f.Env.NumCPU)

	if baseline != "" {
		base, err := obsv.ReadBenchFile(baseline)
		if err != nil {
			return err
		}
		if base.Env.GOARCH != f.Env.GOARCH || base.Env.NumCPU != f.Env.NumCPU {
			fmt.Printf("note: baseline env differs (%s/%d CPUs vs %s/%d) — ratios are indicative only\n",
				base.Env.GOARCH, base.Env.NumCPU, f.Env.GOARCH, f.Env.NumCPU)
		}
		rep := obsv.CompareBench(base, f, threshold, allocThreshold)
		fmt.Println()
		rep.Render(os.Stdout)
		if rep.Failed() {
			return errRegression{n: len(rep.Regressions)}
		}
	}
	return nil
}
