// Command wirecli is a command-line client for graphd's binary wire
// protocol (-listen-wire). It speaks the same query set as the HTTP+JSON
// API and prints every decoded result as JSON with the HTTP response's
// exact keys, so its output can be diffed against the corresponding
// /query/* endpoint byte-for-byte after key-order normalization — the
// protocol-equivalence check scripts/graphd_smoke.sh runs.
//
// Usage:
//
//	wirecli -addr host:port [-timeout 5s] <command> [args]
//
//	ping                     liveness round-trip
//	stats                    server stats (raw JSON passthrough)
//	ingest                   read a JSON array of {src,dst,weight,time,delete}
//	                         from stdin and submit it (429 suffixes retried)
//	jaccard <u> [threshold]  per-vertex Jaccard similarity
//	khop <v> [k]             k-hop neighborhood (default k=1)
//	topdegree [k]            k highest-degree vertices (default k=10)
//	component <v>            connected-component summary
//	pagerank <v>             one vertex's rank
//	pagerank-top [k]         top-k ranks (default k=10)
//
// The command line is checked before anything dials: a bad one exits 2, a
// failed call exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// usageError is a command line naming an unknown flag or command, or a
// command with bad arguments.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "wirecli:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(args []string) error {
	fs := flag.NewFlagSet("wirecli", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8091", "graphd wire listener address")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request deadline sent in the wire envelope")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return usageError{errors.New("missing command")}
	}
	call, err := parse(fs.Arg(0), fs.Args()[1:], *timeout)
	if err != nil {
		return usageError{err}
	}

	c, err := wire.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	out, err := call(c)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// synopses gives each command's arguments, <required> then [optional]; parse
// checks an argument count against them.
var synopses = map[string]string{
	"ping":         "ping",
	"stats":        "stats",
	"ingest":       "ingest",
	"jaccard":      "jaccard <u> [threshold]",
	"khop":         "khop <v> [k]",
	"topdegree":    "topdegree [k]",
	"component":    "component <v>",
	"pagerank":     "pagerank <v>",
	"pagerank-top": "pagerank-top [k]",
}

// parse checks cmd and its arguments against the command's synopsis and
// returns the call they name, whose answer prints as JSON.
func parse(cmd string, args []string, timeout time.Duration) (func(*wire.Client) (any, error), error) {
	synopsis, ok := synopses[cmd]
	if !ok {
		return nil, fmt.Errorf("unknown command %q", cmd)
	}
	bad := fmt.Errorf("usage: %s", synopsis)
	fields := strings.Fields(synopsis)[1:]
	if len(args) > len(fields) || len(args) < strings.Count(synopsis, "<") {
		return nil, bad
	}
	var err error
	// num parses args[i] as an int32, def when it is absent. A required
	// argument is a vertex, so it must not be negative.
	num := func(i int, def int32) int32 {
		if i >= len(args) {
			return def
		}
		n, perr := strconv.ParseInt(args[i], 10, 32)
		if perr != nil || (n < 0 && strings.HasPrefix(fields[i], "<")) {
			err = bad
		}
		return int32(n)
	}

	var call func(*wire.Client) (any, error)
	switch cmd {
	case "ping":
		call = func(c *wire.Client) (any, error) { return map[string]bool{"ok": true}, c.Ping(timeout) }
	case "stats":
		call = func(c *wire.Client) (any, error) { return c.Stats(timeout) }
	case "ingest":
		call = func(c *wire.Client) (any, error) { return ingest(c, timeout) }
	case "jaccard":
		u, threshold := num(0, 0), 0.0
		if len(args) > 1 {
			var perr error
			if threshold, perr = strconv.ParseFloat(args[1], 64); perr != nil {
				err = bad
			}
		}
		call = func(c *wire.Client) (any, error) { return c.Jaccard(u, threshold, timeout) }
	case "khop":
		v, k := num(0, 0), num(1, 1)
		call = func(c *wire.Client) (any, error) { return c.KHop([]int32{v}, k, timeout) }
	case "topdegree":
		k := num(0, wire.DefaultTopK)
		call = func(c *wire.Client) (any, error) { return c.TopDegree(k, timeout) }
	case "component":
		v := num(0, 0)
		call = func(c *wire.Client) (any, error) { return c.Component(v, timeout) }
	case "pagerank":
		v := num(0, 0)
		call = func(c *wire.Client) (any, error) { return c.PageRankVertex(v, timeout) }
	case "pagerank-top":
		k := num(0, wire.DefaultTopK)
		call = func(c *wire.Client) (any, error) { return c.PageRankTop(k, timeout) }
	}
	if err != nil {
		return nil, err
	}
	return call, nil
}

// ingest reads the edit array from stdin and submits it over the wire,
// retrying the rejected suffix on backpressure per the accepted-prefix
// contract. It returns the final IngestResult, totalled across retries.
func ingest(c *wire.Client, timeout time.Duration) (*wire.IngestResult, error) {
	body, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, err
	}
	var edits []wire.IngestEdit
	if err := json.Unmarshal(body, &edits); err != nil {
		return nil, fmt.Errorf("stdin is not a JSON edit array: %w", err)
	}
	accepted := 0
	for len(edits) > 0 {
		res, err := c.Ingest(edits, timeout)
		var we *wire.Error
		if errors.As(err, &we) && we.Code == 429 {
			accepted += res.Accepted
			edits = edits[res.Accepted:]
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if err != nil {
			return nil, err
		}
		res.Accepted += accepted
		return res, nil
	}
	return &wire.IngestResult{Accepted: accepted}, nil
}
