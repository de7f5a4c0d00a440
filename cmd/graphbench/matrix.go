package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
)

// matrixCmd is the continuous-benchmark harness: it runs a fixed kernel ×
// graph matrix (see obsv.RunMatrix), writes a schema-versioned
// BENCH_<stamp>.json artifact with an environment fingerprint and per-case
// resource accounts, and — given a baseline file — fails with a regression
// table when any case slowed past the threshold. The serving layers are
// measured end to end by the repository benchmark in benchmark/; this
// harness covers the kernels and the model/simulator packages it leaves out.
func matrixCmd(fs *flag.FlagSet) (func() error, func(*telemetry.Registry) error) {
	out := fs.String("out", "", "output file (default BENCH_<stamp>.json)")
	baseline := fs.String("baseline", "", "compare against this BENCH_*.json; regressions exit nonzero")
	threshold := fs.Float64("threshold", 1.30, "regression threshold (current/baseline ns per op)")
	allocThreshold := fs.Float64("alloc-threshold", 1.50, "regression threshold (current/baseline alloc bytes)")
	quick := fs.Bool("quick", false, "CI-sized matrix: smaller scales, fewer reps")
	scales := fs.String("scales", "", "comma-separated graph scales (overrides the matrix default)")
	ef := fs.Int("ef", 0, "edge factor (0 = matrix default)")
	seed := fs.Int64("seed", 0, "generator seed (0 = matrix default)")
	reps := fs.Int("reps", 0, "repetitions per case, min wall wins (0 = matrix default)")
	kernels := fs.String("kernels", "", "comma-separated kernel subset (default all)")
	nora := fs.Bool("nora", true, "print the model-vs-simulated NORA table")

	var spec obsv.MatrixSpec
	check := func() error {
		spec = obsv.DefaultMatrixSpec()
		if *quick {
			spec = obsv.QuickMatrixSpec()
		}
		if *scales != "" {
			spec.Scales = spec.Scales[:0]
			for _, s := range strings.Split(*scales, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || v < 1 || v > 24 {
					return fmt.Errorf("bad -scales entry %q", s)
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
			valid := obsv.MatrixKernels()
			for _, k := range strings.Split(*kernels, ",") {
				k = strings.TrimSpace(k)
				if !slices.Contains(valid, k) {
					return fmt.Errorf("unknown -kernels entry %q (valid: %s)", k, strings.Join(valid, ", "))
				}
				spec.Kernels = append(spec.Kernels, k)
			}
		}
		return nil
	}
	return check, func(reg *telemetry.Registry) error {
		return runMatrix(reg, spec, *out, *baseline, *threshold, *allocThreshold, *nora)
	}
}

func runMatrix(reg *telemetry.Registry, spec obsv.MatrixSpec, out, baseline string, threshold, allocThreshold float64, nora bool) error {
	stamp := time.Now().UTC().Format("2006-01-02T15-04-05Z")
	fmt.Printf("graphbench matrix: scales=%v ef=%d seed=%d reps=%d workers=%d\n\n",
		spec.Scales, spec.EdgeFactor, spec.Seed, spec.Reps, par.DefaultWorkers())

	cases := obsv.RunMatrix(reg, spec)

	tb := bench.NewTable("case", "ns/op", "TEPS", "alloc(MB)", "par-chunks", "gc")
	for _, c := range cases {
		tb.Add(c.Name, c.NsPerOp, fmt.Sprintf("%.3g", c.TEPS),
			fmt.Sprintf("%.1f", float64(c.Account.AllocBytes)/(1<<20)),
			c.Account.ParChunks, c.Account.GCCycles)
	}
	tb.Render(os.Stdout)

	if nora {
		fmt.Println()
		rep := obsv.ModelVsSimulatedNORA(perfmodel.Base2012, obsv.SimOptions{})
		rep.Render(os.Stdout)
		rep.Publish(reg)
	}

	f := obsv.NewBenchFile(stamp, cases)
	if out == "" {
		out = "BENCH_" + stamp + ".json"
	}
	if err := f.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d cases, %s %s/%s, %d CPUs)\n",
		out, len(cases), f.Env.GoVersion, f.Env.GOOS, f.Env.GOARCH, f.Env.NumCPU)

	if baseline == "" {
		return nil
	}
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
	if rep.Compared == 0 {
		return fmt.Errorf("no case of this run is in baseline %s: nothing was compared", baseline)
	}
	if rep.Failed() {
		return fmt.Errorf("%d case(s) regressed past the threshold", len(rep.Regressions))
	}
	return nil
}
