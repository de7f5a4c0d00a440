package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// hotPathAllow lists the files in the hot-path packages that may allocate
// maps: cold-path kernels where a map is the honest structure (string-keyed
// motif tables, per-query candidate sets, partition metadata) and serving
// files whose maps are per process, per version or per write batch, never
// per read. Adding a file here needs a review argument for why a scratch
// accumulator does not fit.
var hotPathAllow = map[string]bool{
	"kernels/bc.go":        true, // per-source predecessor lists, rebuilt per traversal
	"kernels/mst.go":       true, // Borůvka component-edge maps, O(components) per round
	"kernels/partition.go": true, // partition metadata, not per-edge
	"kernels/ppr.go":       true, // sparse residual over a few touched vertices
	"kernels/subiso.go":    true, // per-candidate match state, exponential search anyway
	"kernels/temporal.go":  true, // time-indexed adjacency, build-time only
	"server/server.go":     true, // connection and in-flight trace registries, one per process
	"server/ingest.go":     true, // last-write-wins dedup of one ingest batch, write path only
	"cluster/bsp.go":       true, // WCC relabel tables, rebuilt once per version vector
}

// TestHotPathsHaveNoMapAccumulators is the CI gate: the migrated hot-path
// packages must stay free of `make(map[...])` outside the allowlist.
func TestHotPathsHaveNoMapAccumulators(t *testing.T) {
	dirs := []string{
		filepath.Join("..", "kernels"),
		filepath.Join("..", "matrix"),
		filepath.Join("..", "server"),
		filepath.Join("..", "cluster"),
	}
	findings, err := NoMapAccumulators(dirs, hotPathAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f.String())
	}
}

// TestNoMapAccumulatorsDetects checks the analyzer itself on synthetic
// sources: a map make is flagged with the right line, non-map makes and
// test files are ignored, and the allowlist suppresses.
func TestNoMapAccumulatorsDetects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("bad.go", "package p\n\nfunc f() {\n\tm := make(map[int64]int32, 8)\n\t_ = m\n}\n")
	write("ok.go", "package p\n\nfunc g() []int { return make([]int, 4) }\n")
	write("bad_test.go", "package p\n\nfunc h() { _ = make(map[int]int) }\n")
	write("allowed.go", "package p\n\nfunc i() { _ = make(map[string]bool) }\n")

	findings, err := NoMapAccumulators([]string{dir}, map[string]bool{filepath.Base(dir) + "/allowed.go": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly bad.go", findings)
	}
	f := findings[0]
	if filepath.Base(f.File) != "bad.go" || f.Line != 4 {
		t.Errorf("finding = %+v, want bad.go:4", f)
	}
	if f.Expr != "make(map[int64]int32, 8)" {
		t.Errorf("expr = %q", f.Expr)
	}
}
