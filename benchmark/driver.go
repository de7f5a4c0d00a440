package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// clock is the driver's only view of time, so the tests can script it.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// spinWindow is how long before a deadline SleepUntil stops sleeping and
// spins. A sleeping thread wakes late on the reference box (a VM, where an
// idle CPU halts): by 0.1ms at the median and 0.3ms at the 99th percentile.
// An open loop that times ops from their due time adds that lateness to
// every latency, and a cached lookup takes 0.03-0.1ms. So the sleep ends
// spinWindow early and the rest of the wait is a spin, which costs up to
// spinWindow of one core per op (README, "How late the generator runs").
const spinWindow = 500 * time.Microsecond

// SleepUntil sleeps on a timerfd, read through the Go poller, and not with
// time.Sleep or nanosleep(2). time.Sleep in a process that is otherwise
// idle wakes up to a millisecond late, because the scheduler waits in
// epoll_wait, whose timeout is in milliseconds. nanosleep(2) is punctual
// but blocks its thread and processor behind the scheduler's back: with
// connection A waiting for an answer and connection B in nanosleep, no
// thread is left polling the network, and A's answer is seen only when B
// wakes, sends and parks, one whole gap late. A timerfd is both: the
// kernel's high-resolution timer, and a file the poller watches next to the
// connections' sockets.
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		if tfd := timerfds.Get().(*timerfd); tfd != nil {
			tfd.wait(d)
			timerfds.Put(tfd)
		} else {
			time.Sleep(d) // no timerfd to be had: late, and reported as such
		}
	}
	for time.Now().Before(t) {
	}
}

// timerfd is a Linux timer file: fd for the timer calls, file for reading
// it through the poller. (File.Fd is not used: it may put the descriptor
// back into blocking mode.)
type timerfd struct {
	fd   uintptr
	file *os.File
}

// timerfds holds one timerfd per goroutine that sleeps; a dropped one is
// closed by its file's finalizer.
var timerfds = sync.Pool{New: func() any {
	const flags = 0o2000000 | 0o4000 // TFD_CLOEXEC | TFD_NONBLOCK
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, flags, 0)
	if errno != 0 {
		return (*timerfd)(nil)
	}
	return &timerfd{fd, os.NewFile(fd, "timerfd")}
}}

// wait arms the timer to fire once after d and blocks until it has.
func (t *timerfd) wait(d time.Duration) {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {interval, value}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	_, _ = t.file.Read(expirations[:]) // an early return is covered by the caller's spin
}

// opFunc sends operation i on connection conn and returns once the answer
// has arrived. The check it returns runs off the clock and reports whether
// the op succeeded: a refused, timed-out, transport-failed or wrongly-answered
// op is failed.
type opFunc func(conn, i int) (check func() bool)

// driver is the one load generator: conns connections, each a goroutine
// that sends its next op when the previous one returned.
type driver struct {
	clk   clock
	conns int
}

// phase is what one load phase observed. Latencies are in microseconds;
// a failed op's latency is +Inf, so it sits above every percentile it can.
type phase struct {
	attempted int
	failed    int
	elapsed   time.Duration
	lat       []float64
	late      []float64 // open loop: how late the generator itself sent each op
}

func (p *phase) ok() int { return p.attempted - p.failed }

// opsPerSec is verified ops per second of the phase.
func (p *phase) opsPerSec() float64 { return float64(p.ok()) / p.elapsed.Seconds() }

type connLog struct {
	lat, late []float64
	failed    int
}

func (d driver) run(body func(conn int, log *connLog)) phase {
	logs := make([]connLog, d.conns)
	start := d.clk.Now()
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, &logs[c])
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: d.clk.Now().Sub(start)}
	for i := range logs {
		p.lat = append(p.lat, logs[i].lat...)
		p.late = append(p.late, logs[i].late...)
		p.failed += logs[i].failed
	}
	p.attempted = len(p.lat)
	return p
}

func (l *connLog) record(ok bool, lat time.Duration) {
	if ok {
		l.lat = append(l.lat, float64(lat)/float64(time.Microsecond))
		return
	}
	l.failed++
	l.lat = append(l.lat, math.Inf(1))
}

// closed runs ops first, first+1, ... closed-loop until dur has passed.
func (d driver) closed(first int, dur time.Duration, do opFunc) phase {
	deadline := d.clk.Now().Add(dur)
	return d.closedUntil(first, func(int) bool { return !d.clk.Now().Before(deadline) }, do)
}

// count runs exactly n ops closed-loop.
func (d driver) count(first, n int, do opFunc) phase {
	return d.closedUntil(first, func(k int) bool { return k >= n }, do)
}

func (d driver) closedUntil(first int, done func(k int) bool, do opFunc) phase {
	var next atomic.Int64
	return d.run(func(c int, log *connLog) {
		for {
			k := int(next.Add(1) - 1)
			if done(k) {
				return
			}
			t0 := d.clk.Now()
			check := do(c, first+k)
			lat := d.clk.Now().Sub(t0)
			log.record(check(), lat)
		}
	})
}

// open sends floor(rate*dur) ops on a fixed schedule: op k is due at
// start + k/rate whatever happened to the ops before it. Latency runs from
// the due time, so the wait a stall imposes on later ops is counted. With
// every connection busy an op starts late and that wait is latency too;
// late records only the generator's own share, the time between the moment
// the op could have gone out (due, or its connection freeing up) and the
// moment it did.
func (d driver) open(first int, rate float64, dur time.Duration, do opFunc) phase {
	n := int(rate * dur.Seconds())
	gap := time.Duration(float64(time.Second) / rate)
	start := d.clk.Now()
	var next atomic.Int64
	return d.run(func(c int, log *connLog) {
		for {
			k := int(next.Add(1) - 1)
			if k >= n {
				return
			}
			due := start.Add(time.Duration(k) * gap)
			ready := d.clk.Now()
			if due.After(ready) {
				d.clk.SleepUntil(due)
				ready = due
			}
			sent := d.clk.Now()
			check := do(c, first+k)
			lat := d.clk.Now().Sub(due)
			log.record(check(), lat)
			log.late = append(log.late, float64(sent.Sub(ready))/float64(time.Microsecond))
		}
	})
}

// percentile is the nearest-rank percentile of xs (0 < q <= 1); xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

var errTooFewSamples = errors.New("too few timed ops for a p99")

// p99 refuses to name a 99th percentile from fewer than minOps samples: with
// 1,000 there are ten beyond it, with fewer it is a maximum under another name.
func p99(xs []float64, minOps int) (float64, error) {
	if len(xs) < minOps {
		return 0, fmt.Errorf("%w: %d < %d", errTooFewSamples, len(xs), minOps)
	}
	return percentile(xs, 0.99), nil
}

// median is the middle value of xs, the mean of the middle two when there
// is no single one.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
