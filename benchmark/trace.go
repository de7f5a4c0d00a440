package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Trace; Parent is the ID of the span that caused this one (0 for a
// root). The program under test is not instrumented by this PR, so every
// span is recorded here, around the benchmark's calls into each layer.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the untraced run is made.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	tr *tracer
	s  span
}

func (t *tracer) start(trace, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{t, span{Trace: trace, ID: t.nextID.Add(1), Parent: parent, Name: name, Start: int64(time.Since(t.t0))}}
}

// child opens a span caused by r, in r's trace.
func (r spanRef) child(name string) spanRef {
	return r.tr.start(r.s.Trace, r.s.ID, name)
}

func (r spanRef) end() {
	if r.tr == nil {
		return
	}
	r.s.End = int64(time.Since(r.tr.t0))
	r.tr.mu.Lock()
	r.tr.spans = append(r.tr.spans, r.s)
	r.tr.mu.Unlock()
}

// selfTimes returns, per span name, the total duration of its spans minus
// the part their direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
