package main

import (
	"fmt"
	"os"
	"slices"
)

// repeatSets is -repeat N: two sets back to back, each N runs of every
// workload with the same seed, then per metric and workload the median of
// each set and how much worse the second is than the first (or the first
// than the second, whichever is larger). An end-to-end metric is held
// against its bound and fails the command when it is past it: two sets of
// runs of the same code must agree within the benchmark's own bounds. The
// demoted system metrics are shown without a verdict.
func repeatSets(base runConfig, n int, binDir, workDir string) int {
	var sets [2]map[string]map[string]float64 // set -> workload -> metric -> median
	for s := range sets {
		sets[s] = map[string]map[string]float64{}
		for _, w := range workloads {
			runs := map[string][]float64{}
			for i := 0; i < n; i++ {
				cfg := base
				cfg.workload = w.Name
				res, err := runOnce(cfg, false, "", binDir, workDir)
				if err == nil && res.failed > 0 {
					err = fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: set %d, %s: %v\n", s+1, w.Name, err)
					return 1
				}
				for name, v := range res.metrics {
					runs[name] = append(runs[name], v)
				}
			}
			sets[s][w.Name] = map[string]float64{}
			for name, vs := range runs {
				sets[s][w.Name][name] = median(vs)
			}
		}
	}
	past := 0
	compared := slices.Clone(endToEnd)
	for _, m := range perLayer {
		if m.Layer == systemLayer {
			compared = append(compared, m.metricDef)
		}
	}
	fmt.Printf("%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "worse", "bound")
	for _, w := range workloads {
		for _, m := range compared {
			a, b := sets[0][w.Name][m.Name], sets[1][w.Name][m.Name]
			lo, hi := min(a, b), max(a, b)
			worse := (hi - lo) / lo // lower is better: the higher one is worse than the lower
			if m.Better == "higher" {
				worse = (hi - lo) / hi
			}
			bound, flag := "     -", "" // demoted: no bound, no verdict
			if m.Bound > 0 {
				bound = fmt.Sprintf("%5.0f%%", m.Bound*100)
				if worse > m.Bound {
					flag = "  PAST BOUND"
					past++
				}
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %7.1f%% %s%s\n", w.Name, m.Name, a, b, worse*100, bound, flag)
		}
	}
	if past > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: a metric moved past its bound between two sets of runs of the same code")
		return 1
	}
	return 0
}
