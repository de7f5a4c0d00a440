package par

import (
	"flag"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 257, 10000} {
		for _, w := range []int{1, 2, 8, 33} {
			hits := make([]int32, n)
			For(n, Opt{Workers: w, Name: "test.cover"}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d hit %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForWWorkerIDsInRange(t *testing.T) {
	opt := Opt{Workers: 4, Grain: 1, Name: "test.ids"}
	var bad atomic.Int32
	ForW(100, opt, func(w, lo, hi int) {
		if w < 0 || w >= opt.WorkerCount() {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d chunks saw out-of-range worker ids", bad.Load())
	}
}

func TestChunksOrderIndependentOfWorkers(t *testing.T) {
	n := 1000
	ref := Chunks(n, Opt{Workers: 1, Name: "test.chunks"}, func(c, lo, hi int) [3]int {
		return [3]int{c, lo, hi}
	})
	for _, w := range []int{2, 5, 8} {
		got := Chunks(n, Opt{Workers: w, Name: "test.chunks"}, func(c, lo, hi int) [3]int {
			return [3]int{c, lo, hi}
		})
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: chunk layout differs from workers=1", w)
		}
	}
}

// Floating-point reduction must be byte-identical for every worker count —
// the property the kernel determinism suite is built on.
func TestReduceFloatDeterministic(t *testing.T) {
	n := 4096
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+1)
	}
	leaf := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	add := func(a, b float64) float64 { return a + b }
	ref := Reduce(n, Opt{Workers: 1, Name: "test.reduce"}, leaf, add)
	for _, w := range []int{2, 3, 8} {
		got := Reduce(n, Opt{Workers: w, Name: "test.reduce"}, leaf, add)
		if got != ref {
			t.Fatalf("workers=%d: sum %v != workers=1 sum %v", w, got, ref)
		}
	}
	if Reduce(0, Opt{}, leaf, add) != 0 {
		t.Fatal("empty reduce should return zero value")
	}
}

func TestGrainExplicitAndAuto(t *testing.T) {
	// Explicit grain 10 over 95 indices -> 10 chunks, last short.
	sizes := Chunks(95, Opt{Grain: 10, Workers: 3, Name: "test.grain"}, func(_, lo, hi int) int {
		return hi - lo
	})
	if len(sizes) != 10 || sizes[9] != 5 {
		t.Fatalf("grain=10 over 95: %v", sizes)
	}
	// Auto grain keeps chunk count bounded.
	if nc := len(Chunks(1_000_000, Opt{Workers: 2, Name: "test.grain"}, func(c, lo, hi int) int { return c })); nc > maxChunks {
		t.Fatalf("auto grain produced %d chunks", nc)
	}
}

func TestDefaultWorkersRoundTrip(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if DefaultWorkers() != 3 {
		t.Fatalf("DefaultWorkers = %d after SetDefaultWorkers(3)", DefaultWorkers())
	}
	if (Opt{}).WorkerCount() != 3 {
		t.Fatalf("zero Opt should resolve to default")
	}
	if (Opt{Workers: 7}).WorkerCount() != 7 {
		t.Fatalf("explicit Opt.Workers should win")
	}
	SetDefaultWorkers(0)
	if DefaultWorkers() < 1 {
		t.Fatalf("GOMAXPROCS default should be >= 1")
	}
}

func TestTelemetryPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	SetRegistry(reg)
	defer SetRegistry(telemetry.Default())

	For(100, Opt{Workers: 4, Name: "test.telemetry"}, func(lo, hi int) {})
	For(100, Opt{Workers: 4, Name: "test.telemetry"}, func(lo, hi int) {})

	var invocations, tasks int64
	var wallCount int64
	for _, s := range reg.Snapshot() {
		if len(s.Labels) != 1 || s.Labels[0].Value != "test.telemetry" {
			continue
		}
		switch s.Name {
		case "par_invocations_total":
			invocations = int64(s.Value)
		case "par_tasks_total":
			tasks = int64(s.Value)
		case "par_wall_seconds":
			wallCount = s.Hist.Count
		}
	}
	if invocations != 2 || tasks != 200 {
		t.Fatalf("invocations=%d tasks=%d, want 2 and 200", invocations, tasks)
	}
	if wallCount != 2 {
		t.Fatalf("wall histogram count = %d, want 2", wallCount)
	}
}

func TestRegisterFlags(t *testing.T) {
	defer SetDefaultWorkers(0)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs)
	if err := fs.Parse([]string{"-workers", "5"}); err != nil {
		t.Fatal(err)
	}
	if DefaultWorkers() != 5 {
		t.Fatalf("DefaultWorkers = %d after -workers=5", DefaultWorkers())
	}
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs2)
	if err := fs2.Parse([]string{"-workers", "-1"}); err == nil {
		t.Fatal("negative -workers should be rejected")
	}
}
