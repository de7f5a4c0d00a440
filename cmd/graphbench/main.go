// Command graphbench is the repository's benchmark driver, one subcommand
// per benchmark: kernels (the Fig. 1 batch kernels, experiment E1), streams
// (the streaming kernels, E9) and matrix (the continuous-benchmark
// trajectory with its baseline regression gate).
//
//	graphbench <kernels|streams|matrix> [flags]
//
// Every subcommand also takes -workers and the telemetry flags; `graphbench
// <subcommand> -h` lists them all. A bad command line exits 2; a failed run,
// or a matrix run that regressed past its threshold, exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/telemetry"
)

// subcommands maps each subcommand name to the function that registers its
// own flags on fs. After parsing, check validates their values and body
// runs the benchmark inside the telemetry session.
var subcommands = map[string]func(fs *flag.FlagSet) (check func() error, body func(*telemetry.Registry) error){
	"kernels": kernelsCmd,
	"streams": streamsCmd,
	"matrix":  matrixCmd,
}

const usage = "usage: graphbench kernels|streams|matrix [flags]; graphbench <subcommand> -h lists its flags"

// usageError is a command line naming no valid subcommand, flag or value.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "graphbench:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(args []string) error {
	if len(args) == 0 {
		return usageError{errors.New("missing subcommand\n" + usage)}
	}
	flags, ok := subcommands[args[0]]
	if !ok {
		return usageError{fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)}
	}
	fs := flag.NewFlagSet("graphbench "+args[0], flag.ContinueOnError)
	check, body := flags(fs)
	par.RegisterFlags(fs)
	tel := telemetry.NewCLI(fs, telemetry.Default())
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return usageError{fmt.Errorf("unexpected arguments: %v", fs.Args())}
	}
	if err := check(); err != nil {
		return usageError{err}
	}
	return tel.Run(func() error {
		defer obsv.StartSampler(tel.Registry, 0).Stop()
		return body(tel.Registry)
	})
}
