package main

import (
	"errors"
	"strings"
	"testing"
)

// TestRunUsageErrors: a bad command line is a usage error (exit 2) found
// before anything dials, so nothing listening at -addr changes the answer;
// a good one gets as far as the dial.
func TestRunUsageErrors(t *testing.T) {
	const noServer = "127.0.0.1:1"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "missing command"},
		{[]string{"-addr", noServer}, "missing command"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
		{[]string{"-addr", noServer, "bogus"}, `unknown command "bogus"`},
		{[]string{"-addr", noServer, "khop"}, "usage: khop <v> [k]"},
		{[]string{"-addr", noServer, "khop", "-1"}, "usage: khop <v> [k]"},
		{[]string{"-addr", noServer, "khop", "1", "two"}, "usage: khop <v> [k]"},
		{[]string{"-addr", noServer, "khop", "1", "2", "3"}, "usage: khop <v> [k]"},
		{[]string{"-addr", noServer, "jaccard", "1", "high"}, "usage: jaccard <u> [threshold]"},
		{[]string{"-addr", noServer, "component", "4294967296"}, "usage: component <v>"},
		{[]string{"-addr", noServer, "topdegree", "x"}, "usage: topdegree [k]"},
		{[]string{"-addr", noServer, "ping", "extra"}, "usage: ping"},
	} {
		err := run(tc.args)
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want a usage error containing %q", tc.args, err, tc.want)
		}
	}
	for _, args := range [][]string{{"ping"}, {"khop", "1", "2"}, {"jaccard", "1", "0.5"}, {"pagerank-top"}} {
		err := run(append([]string{"-addr", noServer}, args...))
		if err == nil || errors.As(err, new(usageError)) {
			t.Errorf("run(%q) with no server = %v, want a dial error", args, err)
		}
	}
}
