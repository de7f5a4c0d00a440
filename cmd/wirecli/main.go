// Command wirecli is a command-line client for graphd's binary wire
// protocol (-listen-wire). It speaks the same query set as the HTTP+JSON
// API and prints every decoded result as JSON with the HTTP response's
// exact keys, so its output can be diffed against the corresponding
// /query/* endpoint byte-for-byte after key-order normalization — the
// protocol-equivalence check scripts/graphd_smoke.sh runs. It also
// converts legacy dyngraph snapshots to the flat format graphd recovers
// from, offline.
//
// Usage:
//
//	wirecli -addr host:port [-timeout 5s] <command> [args]
//	wirecli convert-snapshot <legacy> <flat>
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
// convert-snapshot reads a legacy snapshot (the dyngraph.Save format older
// graphd versions persisted) and writes the flat snapshot of the same graph
// to <flat>; it needs no server.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/wire"
	"repro/internal/wire/snapfmt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wirecli:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8091", "graphd wire listener address")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline sent in the wire envelope")
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		return errors.New("missing command")
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	if cmd == "convert-snapshot" {
		if len(args) != 2 {
			return errors.New("usage: convert-snapshot <legacy> <flat>")
		}
		return convertSnapshot(args[0], args[1])
	}

	c, err := wire.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()

	intArg := func(i int, def int64) (int64, error) {
		if i >= len(args) {
			return def, nil
		}
		return strconv.ParseInt(args[i], 10, 32)
	}

	var out any
	switch cmd {
	case "ping":
		if err := c.Ping(*timeout); err != nil {
			return err
		}
		out = map[string]bool{"ok": true}
	case "stats":
		raw, err := c.Stats(*timeout)
		if err != nil {
			return err
		}
		_, werr := os.Stdout.Write(append(raw, '\n'))
		return werr
	case "ingest":
		return ingest(c, *timeout)
	case "jaccard":
		u, err := intArg(0, -1)
		if err != nil || u < 0 {
			return errors.New("usage: jaccard <u> [threshold]")
		}
		threshold := 0.0
		if len(args) > 1 {
			if threshold, err = strconv.ParseFloat(args[1], 64); err != nil {
				return fmt.Errorf("bad threshold %q", args[1])
			}
		}
		if out, err = c.Jaccard(int32(u), threshold, *timeout); err != nil {
			return err
		}
	case "khop":
		v, err := intArg(0, -1)
		if err != nil || v < 0 {
			return errors.New("usage: khop <v> [k]")
		}
		k, err := intArg(1, 1)
		if err != nil {
			return fmt.Errorf("bad k %q", args[1])
		}
		if out, err = c.KHop([]int32{int32(v)}, int32(k), *timeout); err != nil {
			return err
		}
	case "topdegree":
		k, err := intArg(0, 10)
		if err != nil {
			return fmt.Errorf("bad k %q", args[0])
		}
		if out, err = c.TopDegree(int32(k), *timeout); err != nil {
			return err
		}
	case "component":
		v, err := intArg(0, -1)
		if err != nil || v < 0 {
			return errors.New("usage: component <v>")
		}
		if out, err = c.Component(int32(v), *timeout); err != nil {
			return err
		}
	case "pagerank":
		v, err := intArg(0, -1)
		if err != nil || v < 0 {
			return errors.New("usage: pagerank <v>")
		}
		if out, err = c.PageRankVertex(int32(v), *timeout); err != nil {
			return err
		}
	case "pagerank-top":
		k, err := intArg(0, 10)
		if err != nil {
			return fmt.Errorf("bad k %q", args[0])
		}
		if out, err = c.PageRankTop(int32(k), *timeout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}

	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(out)
}

// ingestUpdate mirrors the HTTP ingest body's element shape, so the same
// JSON feeds either protocol.
type ingestUpdate struct {
	Src    int32   `json:"src"`
	Dst    int32   `json:"dst"`
	Weight float32 `json:"weight,omitempty"`
	Time   int64   `json:"time,omitempty"`
	Delete bool    `json:"delete,omitempty"`
}

// ingest reads the update array from stdin and submits it over the wire,
// retrying the rejected suffix on backpressure per the accepted-prefix
// contract. The final IngestResult (totals across retries) prints as JSON.
func ingest(c *wire.Client, timeout time.Duration) error {
	body, err := io.ReadAll(os.Stdin)
	if err != nil {
		return err
	}
	var updates []ingestUpdate
	if err := json.Unmarshal(body, &updates); err != nil {
		return fmt.Errorf("stdin is not a JSON update array: %w", err)
	}
	edits := make([]wire.IngestEdit, len(updates))
	for i, u := range updates {
		edits[i] = wire.IngestEdit{Src: u.Src, Dst: u.Dst, Weight: u.Weight, Time: u.Time, Delete: u.Delete}
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
			return err
		}
		accepted += res.Accepted
		res.Accepted = accepted
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	return json.NewEncoder(os.Stdout).Encode(&wire.IngestResult{Accepted: accepted})
}

// convertSnapshot rewrites the legacy snapshot at legacy as a flat snapshot
// at flat: dyngraph.Load, then the graph's CSR snapshot through
// snapfmt.Write. Self-loops, which the CSR snapshot drops, are not carried
// over — graphd never served them. flat must not exist yet: the converter
// never overwrites a file, the legacy one included.
func convertSnapshot(legacy, flat string) error {
	in, err := os.Open(legacy)
	if err != nil {
		return err
	}
	dg, err := dyngraph.Load(in)
	in.Close()
	if err != nil {
		return fmt.Errorf("convert-snapshot: %s: %w", legacy, err)
	}
	out, err := os.OpenFile(flat, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	err = snapfmt.Write(out, dg.Snapshot())
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(flat)
		return fmt.Errorf("convert-snapshot: %s: %w", flat, err)
	}
	return nil
}
