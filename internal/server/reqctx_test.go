package server

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// ctxKey is a key only the test's parent context carries.
type ctxKey struct{}

// TestRequestContextSemantics: a request trace, as its request's context,
// keeps context.WithTimeout's contract over its parent — the sooner
// deadline, Done closing and Err turning non-nil at the deadline or at the
// parent's end, the parent's values — and a pooled trace serves its next
// request from a fresh, live state.
func TestRequestContextSemantics(t *testing.T) {
	reg := telemetry.NewRegistry()
	fe := &frontEnd{reg: reg, slow: newSlowLog(0, nil, reg)}
	begin := func(parent context.Context) *reqTrace {
		return fe.startTrace(parent, telemetry.NewTraceContext(), "test", time.Now())
	}
	waitDone := func(rt *reqTrace, want error) time.Duration {
		t.Helper()
		start := time.Now()
		select {
		case <-rt.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done did not close")
		}
		if err := rt.Err(); !errors.Is(err, want) {
			t.Fatalf("Err after Done = %v, want %v", err, want)
		}
		return time.Since(start)
	}

	// The deadline: Done closes and Err reports it, whether or not anyone
	// waited before it passed.
	rt := begin(context.Background())
	if _, ok := rt.Deadline(); ok {
		t.Fatal("a trace has a deadline before arm")
	}
	rt.arm(20 * time.Millisecond)
	if dl, ok := rt.Deadline(); !ok || time.Until(dl) > 20*time.Millisecond {
		t.Fatalf("Deadline = %v %v, want within 20ms", dl, ok)
	}
	if rt.Err() != nil {
		t.Fatal("Err before the deadline")
	}
	if took := waitDone(rt, context.DeadlineExceeded); took < 10*time.Millisecond {
		t.Fatalf("Done closed after %v, before the deadline", took)
	}
	rt.finish(http.StatusOK, 0)
	rt = begin(context.Background())
	rt.arm(time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	if err := rt.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err past an unwatched deadline = %v", err)
	}
	waitDone(rt, context.DeadlineExceeded)
	rt.finish(http.StatusOK, 0)

	// The parent: its values show through, its sooner deadline wins, and
	// its cancellation — before or during a wait — ends the request.
	parent, cancel := context.WithTimeout(context.WithValue(context.Background(), ctxKey{}, "v"), time.Hour)
	rt = begin(parent)
	rt.arm(2 * time.Hour)
	if pd, _ := parent.Deadline(); rt.Value(ctxKey{}) != "v" || traceFrom(rt) != rt {
		t.Fatal("the trace does not answer its parent's values and itself")
	} else if dl, _ := rt.Deadline(); !dl.Equal(pd) {
		t.Fatalf("Deadline = %v, want the parent's sooner %v", dl, pd)
	}
	done := rt.Done()
	time.AfterFunc(10*time.Millisecond, cancel)
	waitDone(rt, context.Canceled)
	select {
	case <-done:
	default:
		t.Fatal("the Done channel handed out before the cancellation stayed open")
	}
	rt.finish(http.StatusOK, 0)
	rt = begin(parent)
	if err := rt.Err(); err != context.Canceled {
		t.Fatalf("Err under a cancelled parent = %v", err)
	}
	rt.finish(http.StatusOK, 0)

	// A pooled trace serves its next request live.
	for i := 0; i < 3; i++ {
		rt = begin(context.Background())
		rt.arm(time.Hour)
		select {
		case <-rt.Done():
			t.Fatalf("request %d: a recycled trace starts cancelled (%v)", i, rt.Err())
		default:
		}
		if rt.Err() != nil {
			t.Fatalf("request %d: Err = %v on a live request", i, rt.Err())
		}
		rt.finish(http.StatusOK, 0)
	}
}
