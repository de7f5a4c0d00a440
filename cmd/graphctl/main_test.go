package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRunUsageErrors: a command line naming an unknown flag, a bad value,
// a stray argument or no shards is a usage error (exit 2) and starts
// nothing.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "a:1", "extra"}, "unexpected arguments: [extra]"},
		{[]string{"-default-timeout", "1s"}, "flag provided but not defined: -default-timeout"},
		{[]string{"-shards", "a:1", "-vertices", "4294967297"}, "-vertices 4294967297 out of range [1, 2147483647]"},
		{[]string{"-shards", "a:1", "-vertices", "0"}, "-vertices 0 out of range"},
		{nil, "-shards is required"},
		{[]string{"-shard-http", "x"}, "flag provided but not defined: -shard-http"},
	} {
		err := run(tc.args)
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want a usage error containing %q", tc.args, err, tc.want)
		}
	}
}

// flagReasons is why each graphctl flag exists, by the option rule: a
// deployment setting (no file) or a caller that sets a non-default value.
// A flag with no entry here fails TestFlagsHaveReasons: make it a
// constant, or write down who needs it.
var flagReasons = map[string]lint.FlagReason{
	"listen":        {Why: "deployment: the HTTP address", File: "benchmark/procs.go"},
	"shards":        {Why: "deployment: the shards' wire addresses", File: "benchmark/procs.go"},
	"vertices":      {Why: "the graph's shape", File: "benchmark/procs.go"},
	"directed":      {Why: "the graph's shape"},
	"poll-interval": {Why: "the smoke script polls every 200ms to see a dead shard fast", File: "scripts/graphd_smoke.sh"},
	"drain-grace":   {Why: "the smoke script holds /readyz at 503 for 2s", File: "scripts/graphd_smoke.sh"},
}

// TestFlagsHaveReasons holds graphctl's FlagSet to flagReasons and to the
// runbook's graphctl flags paragraph, in both directions.
func TestFlagsHaveReasons(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, para, ok := strings.Cut(string(doc), "\ngraphctl flags:")
	if !ok {
		t.Fatal(`docs/OPERATIONS.md has no "graphctl flags:" paragraph`)
	}
	para, _, _ = strings.Cut(para, "\n\n")
	findings, err := lint.FlagFindings(newFlagSet(&options{}), flagReasons, lint.DocFlags(para), root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
