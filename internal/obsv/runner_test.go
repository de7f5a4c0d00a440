package obsv

import (
	"testing"

	"repro/internal/telemetry"
)

func TestRunMatrixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	spec := MatrixSpec{
		Scales: []int{6}, EdgeFactor: 4, Seed: 1, Reps: 1,
		StreamUpdates: 100,
		Kernels:       []string{"bfs", "wcc", "spgemm", "jaccard-stream", "build"},
	}
	reg := telemetry.NewRegistry()
	cases := RunMatrix(reg, spec)

	// 3 batch kernels x 2 families + 1 streaming case + the build case.
	if len(cases) != 8 {
		t.Fatalf("cases = %d, want 8", len(cases))
	}
	names := map[string]bool{}
	for _, c := range cases {
		names[c.Name] = true
		if c.NsPerOp <= 0 {
			t.Errorf("%s: NsPerOp = %d", c.Name, c.NsPerOp)
		}
		if c.Account.Items <= 0 {
			t.Errorf("%s: Items = %d", c.Name, c.Account.Items)
		}
		if c.TEPS <= 0 {
			t.Errorf("%s: TEPS = %v", c.Name, c.TEPS)
		}
	}
	for _, want := range []string{
		"bfs/rmat-s6-ef4", "bfs/er-s6-ef4", "wcc/rmat-s6-ef4",
		"spgemm/er-s6-ef4", "jaccard-stream/stream-s6-u100", "build/rmat-s15",
	} {
		if !names[want] {
			t.Errorf("missing case %s (have %v)", want, names)
		}
	}

	// Accounts must have been published into the registry.
	published := false
	for _, m := range reg.Snapshot() {
		if m.Name == "obsv_account_wall_seconds" {
			published = true
			break
		}
	}
	if !published {
		t.Error("RunMatrix published no obsv_account_wall_seconds gauges")
	}
}
