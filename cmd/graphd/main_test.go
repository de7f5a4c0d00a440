package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRunUsageErrors: a command line naming an unknown flag, a bad value
// or a stray argument is a usage error (exit 2) and starts nothing. A
// -vertices that does not fit the int32 vertex-ID space used to wrap
// (4294967297 served a one-vertex graph).
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"extra"}, "unexpected arguments: [extra]"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
		{[]string{"-max-inflight", "4"}, "flag provided but not defined: -max-inflight"},
		{[]string{"-vertices", "4294967297"}, "-vertices 4294967297 out of range [1, 2147483647]"},
		{[]string{"-vertices", "2147483648"}, "-vertices 2147483648 out of range"},
		{[]string{"-vertices", "0"}, "-vertices 0 out of range"},
		{[]string{"-vertices", "-5"}, "-vertices -5 out of range"},
		{[]string{"-shard-count", "-3"}, "-shard-count -3 is negative"},
		{[]string{"-shard-index", "-1", "-shard-count", "2", "-listen-wire", ":0"}, "-shard-index -1 is negative"},
		{[]string{"-shard-count", "2"}, "-shard-count 2 requires -listen-wire"},
		{[]string{"-slo", "component,p99=fast"}, `invalid value "component,p99=fast" for flag -slo`},
	} {
		err := run(tc.args)
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want a usage error containing %q", tc.args, err, tc.want)
		}
	}
}

// flagReasons is why each graphd flag exists, by the option rule: a
// deployment setting (no file), a caller that sets a non-default value, or
// a runbook symptom row that tells an operator to change it. A flag with no
// entry here fails TestFlagsHaveReasons: make it a constant, or write down
// who needs it.
var flagReasons = map[string]lint.FlagReason{
	"listen":               {Why: "deployment: the HTTP address", File: "benchmark/procs.go"},
	"listen-wire":          {Why: "deployment: the wire address", File: "benchmark/procs.go"},
	"vertices":             {Why: "the graph's shape", File: "benchmark/procs.go"},
	"directed":             {Why: "the graph's shape"},
	"snapshot":             {Why: "deployment: the snapshot path", File: "benchmark/procs.go"},
	"snapshot-interval":    {Why: "the benchmark and the smoke script persist only on shutdown (0)", File: "benchmark/procs.go"},
	"shard-index":          {Why: "the shard's identity in a cluster", File: "benchmark/procs.go"},
	"shard-count":          {Why: "the cluster's shape", File: "benchmark/procs.go"},
	"queue":                {Why: "429s with a low queue depth: raise it", File: operationsSymptoms},
	"flush-interval":       {Why: "writes become visible late: lower it", File: operationsSymptoms},
	"max-pending-edits":    {Why: "504s after a quiet spell or bulk load: raise it", File: operationsSymptoms},
	"drain-timeout":        {Why: "shutdown exceeds it: raise it", File: operationsSymptoms},
	"workers":              {Why: "admission saturation or a starved writer: change it", File: operationsSymptoms},
	"slow-query-threshold": {Why: "occasional slow requests: set it", File: operationsSymptoms},
	"slow-query-out":       {Why: "deployment: the slow-query log path"},
	"slo":                  {Why: "the smoke script declares an objective", File: "scripts/graphd_smoke.sh"},
	"profile-triggers":     {Why: "an SLO breach with no clear cause: turn it on", File: operationsSymptoms},
	"profile-dir":          {Why: "deployment: the profile bundle directory"},
	"max-heap-bytes":       {Why: "OOM kills under load: set it below the limit", File: operationsSymptoms},
	"drain-grace":          {Why: "the smoke script holds /readyz at 503 for 2s", File: "scripts/graphd_smoke.sh"},
}

// operationsSymptoms is the runbook's symptom table.
const operationsSymptoms = "docs/OPERATIONS.md#Diagnosing common symptoms"

// TestFlagsHaveReasons holds graphd's FlagSet to flagReasons and to the
// runbook's flag table, in both directions.
func TestFlagsHaveReasons(t *testing.T) {
	root := filepath.Join("..", "..")
	doc, err := os.ReadFile(filepath.Join(root, "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	runbook := lint.DocFlags(lint.Section(string(doc), "Flags"))
	findings, err := lint.FlagFindings(newFlagSet(&options{}), flagReasons, runbook, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
