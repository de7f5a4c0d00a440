package main

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock is a scripted clock: Now never moves by itself, SleepUntil jumps
// to the deadline, and an op advances it by its service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func always(ok bool) func() bool { return func() bool { return ok } }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	d := driver{clk: clk, conns: 1}
	// 100 ops/s for 50ms: ops due at 0, 10, 20, 30, 40ms. Op 1 stalls for
	// 25ms, so ops 2 and 3 start late and their wait is latency.
	service := []time.Duration{time.Millisecond, 25 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	var order []int
	p := d.open(7, 100, 50*time.Millisecond, func(conn, i int) func() bool {
		order = append(order, i)
		clk.advance(service[i-7])
		return always(true)
	})
	if p.attempted != 5 || p.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 5 and 0", p.attempted, p.failed)
	}
	for k, i := range order {
		if i != 7+k {
			t.Fatalf("op order %v, want 7..11", order)
		}
	}
	// due 0: 1ms. due 10: 25ms (ends at 35). due 20: starts 35, ends 36 ->
	// 16ms. due 30: starts 36, ends 37 -> 7ms. due 40: 1ms.
	want := []float64{1000, 25000, 16000, 7000, 1000}
	for k, w := range want {
		if p.lat[k] != w {
			t.Errorf("op %d latency %v us, want %v (timed from the due time)", k, p.lat[k], w)
		}
	}
	// The generator itself was never late: every op went out the moment it
	// was due or its connection came free.
	for k, l := range p.late {
		if l != 0 {
			t.Errorf("op %d generator lateness %v us, want 0", k, l)
		}
	}
}

// The wall clock may wake late (the run reports by how much) but never
// early: an op sent before it was due would be timed from a moment at which
// it had already left.
func TestWallClockNeverWakesEarly(t *testing.T) {
	clk := wallClock{}
	for _, d := range []time.Duration{0, 100 * time.Microsecond, spinWindow, 3 * time.Millisecond} {
		due := clk.Now().Add(d)
		clk.SleepUntil(due)
		if now := clk.Now(); now.Before(due) {
			t.Errorf("SleepUntil(now+%v) returned %v early", d, due.Sub(now))
		}
	}
}

func TestClosedLoopSendsNextWhenPreviousReturns(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	d := driver{clk: clk, conns: 1}
	p := d.closed(0, 10*time.Millisecond, func(conn, i int) func() bool {
		clk.advance(3 * time.Millisecond)
		return always(true)
	})
	// Ops start at 0, 3, 6, 9ms; at 12ms the deadline has passed.
	if p.attempted != 4 || p.elapsed != 12*time.Millisecond {
		t.Fatalf("attempted %d in %v, want 4 in 12ms", p.attempted, p.elapsed)
	}
	if got := p.opsPerSec(); math.Abs(got-4/0.012) > 1e-9 {
		t.Errorf("ops/s %v, want %v", got, 4/0.012)
	}
}

func TestCheckRunsOffTheClock(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	d := driver{clk: clk, conns: 1}
	p := d.count(0, 3, func(conn, i int) func() bool {
		clk.advance(2 * time.Millisecond)
		return func() bool {
			clk.advance(50 * time.Millisecond) // verification is not latency
			return true
		}
	})
	for k, l := range p.lat {
		if l != 2000 {
			t.Errorf("op %d latency %v us, want 2000", k, l)
		}
	}
}

func TestAtMostConnsInFlight(t *testing.T) {
	const conns = 2
	d := driver{clk: wallClock{}, conns: conns}
	var mu sync.Mutex
	inFlight, peak := 0, 0
	seen := map[int]bool{}
	p := d.count(0, 200, func(conn, i int) func() bool {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		seen[conn] = true
		mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return always(true)
	})
	if p.attempted != 200 {
		t.Fatalf("attempted %d, want 200", p.attempted)
	}
	if peak > conns || len(seen) > conns {
		t.Errorf("%d ops in flight on %d connections, want at most %d", peak, len(seen), conns)
	}
}

func TestFailedOpsAreInfinite(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	d := driver{clk: clk, conns: 1}
	// Op 3 gets a wrong answer: its check says no.
	p := d.count(0, 10, func(conn, i int) func() bool {
		clk.advance(time.Millisecond)
		return always(i != 3)
	})
	if p.attempted != 10 || p.failed != 1 || p.ok() != 9 {
		t.Fatalf("attempted %d failed %d ok %d, want 10, 1, 9", p.attempted, p.failed, p.ok())
	}
	if got := percentile(p.lat, 1); !math.IsInf(got, 1) {
		t.Errorf("max latency %v, want +Inf for the failed op", got)
	}
	if got := percentile(p.lat, 0.5); got != 1000 {
		t.Errorf("median %v, want 1000: one failed op in ten sits above it", got)
	}
	// Failed ops are excluded from throughput.
	if got, want := p.opsPerSec(), 9/0.010; math.Abs(got-want) > 1e-9 {
		t.Errorf("ops/s %v, want %v", got, want)
	}
}

func TestP99RefusesSmallSamples(t *testing.T) {
	xs := make([]float64, 999)
	if _, err := p99(xs, 1000); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999 samples: err %v, want errTooFewSamples", err)
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	got, err := p99(xs, 1000)
	if err != nil || got != 989 {
		t.Fatalf("p99 of 0..999 = %v, %v; want 989 (ten samples beyond it)", got, err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "call", Start: 10, End: 70},
		{Trace: 1, ID: 3, Parent: 1, Name: "verify", Start: 70, End: 90},
	}
	got := selfTimes(spans)
	if got["op"] != 20 || got["call"] != 60 || got["verify"] != 20 {
		t.Errorf("self times %v, want op 20, call 60, verify 20", got)
	}
}
