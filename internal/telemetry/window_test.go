package telemetry

import (
	"sync"
	"testing"
	"time"
)

// windowTestBase is an arbitrary fixed wall-clock anchor; window logic only
// ever compares instants, so tests drive a synthetic clock from it.
var windowTestBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// TestWindowDeltaBasic: observations land in the delta for the window that
// covers them and age out of later windows after enough rotations.
func TestWindowDeltaBasic(t *testing.T) {
	h := NewRegistry().Histogram("w_seconds")
	w := NewWindowedHistogram(h, time.Second, 16)
	now := windowTestBase

	w.Rotate(now)
	h.Observe(0.010)
	h.Observe(0.010)
	now = now.Add(time.Second)
	w.Rotate(now)

	d := w.Delta(time.Second, now)
	if d.Count != 2 {
		t.Fatalf("1s delta count = %d, want 2", d.Count)
	}

	// Six more quiet rotations: the old observations must age out of a 5s
	// window (boundary at now-5s has already absorbed them).
	for i := 0; i < 6; i++ {
		now = now.Add(time.Second)
		w.Rotate(now)
	}
	if d := w.Delta(5*time.Second, now); d.Count != 0 {
		t.Fatalf("aged 5s delta count = %d, want 0 (buckets %v)", d.Count, d.Buckets)
	}
	// The cumulative histogram is untouched by windowing.
	if h.Count() != 2 {
		t.Fatalf("cumulative count = %d, want 2", h.Count())
	}
}

// TestWindowDeltaEmpty: a window with no observations is empty, not an
// error, and CountOver on it is zero.
func TestWindowDeltaEmpty(t *testing.T) {
	h := NewRegistry().Histogram("w_seconds")
	w := NewWindowedHistogram(h, time.Second, 8)
	now := windowTestBase
	w.Rotate(now)
	now = now.Add(time.Second)
	w.Rotate(now)
	d := w.Delta(time.Second, now)
	if d.Count != 0 || d.Sum != 0 || len(d.Buckets) != 0 {
		t.Fatalf("empty window delta = %+v, want zero", d)
	}
	if over := d.CountOver(0.001); over != 0 {
		t.Fatalf("CountOver on empty delta = %v, want 0", over)
	}
}

// TestWindowRotateOnBoundary: a tick exactly one period after the previous
// boundary rotates; one nanosecond earlier does not.
func TestWindowRotateOnBoundary(t *testing.T) {
	h := NewRegistry().Histogram("w_seconds")
	w := NewWindowedHistogram(h, time.Second, 8)
	now := windowTestBase
	if !w.Rotate(now) {
		t.Fatal("first Rotate must record a boundary")
	}
	if w.Rotate(now.Add(time.Second - time.Nanosecond)) {
		t.Fatal("rotated before a full period elapsed")
	}
	if !w.Rotate(now.Add(time.Second)) {
		t.Fatal("tick exactly on the boundary must rotate")
	}
	// Delta cutoff exactly on a boundary instant selects that boundary.
	h.Observe(0.5)
	now = now.Add(2 * time.Second)
	w.Rotate(now)
	if d := w.Delta(time.Second, now); d.Count != 1 {
		t.Fatalf("on-boundary cutoff delta count = %d, want 1", d.Count)
	}
}

// TestWindowClockSkewBackwards: a clock that moves backwards resets the
// ring instead of serving deltas against "future" boundaries; deltas stay
// non-negative and tracking resumes from the new now.
func TestWindowClockSkewBackwards(t *testing.T) {
	h := NewRegistry().Histogram("w_seconds")
	w := NewWindowedHistogram(h, time.Second, 8)
	now := windowTestBase
	w.Rotate(now)
	h.Observe(0.010)
	now = now.Add(5 * time.Second)
	w.Rotate(now)

	// The clock jumps back 30s. Rotation must re-anchor, not panic or
	// refuse forever.
	skewed := now.Add(-30 * time.Second)
	if !w.Rotate(skewed) {
		t.Fatal("backwards-skewed Rotate must re-anchor")
	}
	h.Observe(0.020)
	d := w.Delta(time.Second, skewed)
	if d.Count < 0 {
		t.Fatalf("skewed delta count = %d, must be non-negative", d.Count)
	}
	// After the reset, one more period of forward progress works normally.
	skewed = skewed.Add(time.Second)
	if !w.Rotate(skewed) {
		t.Fatal("post-skew forward Rotate must record")
	}
	if d := w.Delta(time.Second, skewed); d.Count != 1 {
		t.Fatalf("post-skew delta count = %d, want 1 (the post-skew observation)", d.Count)
	}
}

// TestWindowConcurrentRecordDuringRotate: writers observing while another
// goroutine rotates and reads deltas must be race-clean (run under -race),
// never produce a negative delta, and — snapshots counting the buckets they
// read — always produce one whose buckets sum exactly to its count.
func TestWindowConcurrentRecordDuringRotate(t *testing.T) {
	h := NewRegistry().Histogram("w_seconds")
	w := NewWindowedHistogram(h, time.Millisecond, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.001)
				}
			}
		}()
	}
	now := windowTestBase
	for i := 0; i < 2000; i++ {
		now = now.Add(time.Millisecond)
		w.Rotate(now)
		d := w.Delta(10*time.Millisecond, now)
		if d.Count < 0 {
			t.Errorf("negative delta count %d", d.Count)
			break
		}
		var bsum int64
		for _, b := range d.Buckets {
			if b.Count < 0 {
				t.Errorf("negative bucket count %d", b.Count)
			}
			bsum += b.Count
		}
		if bsum != d.Count {
			t.Errorf("bucket sum %d != count %d", bsum, d.Count)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestWindowShortHistory: before the ring covers a full window, the delta
// falls back to the oldest boundary (tracker lifetime), and with no
// boundaries at all it returns the full cumulative state.
func TestWindowShortHistory(t *testing.T) {
	h := NewRegistry().Histogram("w_seconds")
	w := NewWindowedHistogram(h, time.Second, 8)
	h.Observe(1)
	now := windowTestBase
	if d := w.Delta(time.Minute, now); d.Count != 1 {
		t.Fatalf("no-boundary delta count = %d, want full cumulative 1", d.Count)
	}
	w.Rotate(now)
	h.Observe(2)
	now = now.Add(time.Second)
	w.Rotate(now)
	// Window (1 minute) far exceeds history (1s): oldest boundary is used,
	// so only the post-anchor observation appears.
	if d := w.Delta(time.Minute, now); d.Count != 1 {
		t.Fatalf("short-history delta count = %d, want 1", d.Count)
	}
}

// TestWindowedCounter mirrors the histogram contract for counters: delta
// over the window, boundary-exact rotation, skew reset, short history.
func TestWindowedCounter(t *testing.T) {
	c := NewRegistry().Counter("w_total")
	w := NewWindowedCounter(c, time.Second, 8)
	now := windowTestBase
	w.Rotate(now)
	c.Add(5)
	now = now.Add(time.Second)
	w.Rotate(now)
	if d := w.Delta(time.Second, now); d != 5 {
		t.Fatalf("1s counter delta = %d, want 5", d)
	}
	for i := 0; i < 6; i++ {
		now = now.Add(time.Second)
		w.Rotate(now)
	}
	if d := w.Delta(5*time.Second, now); d != 0 {
		t.Fatalf("aged counter delta = %d, want 0", d)
	}
	// Backwards skew re-anchors.
	skewed := now.Add(-time.Hour)
	if !w.Rotate(skewed) {
		t.Fatal("skewed counter Rotate must re-anchor")
	}
	c.Add(3)
	skewed = skewed.Add(time.Second)
	w.Rotate(skewed)
	if d := w.Delta(time.Second, skewed); d != 3 {
		t.Fatalf("post-skew counter delta = %d, want 3", d)
	}
}

// TestCountOverInterpolation: CountOver splits the threshold's bucket
// linearly and counts whole buckets above it.
func TestCountOverInterpolation(t *testing.T) {
	h := NewRegistry().Histogram("w_seconds")
	// Bucket (0.25, 0.5]: 4 observations; bucket (0.5, 1.0]: 2 observations.
	for i := 0; i < 4; i++ {
		h.Observe(0.3)
	}
	h.Observe(0.7)
	h.Observe(0.7)
	s := h.Snapshot()
	if over := s.CountOver(2.0); over != 0 {
		t.Fatalf("CountOver above all buckets = %v, want 0", over)
	}
	if over := s.CountOver(0.001); over != 6 {
		t.Fatalf("CountOver below all buckets = %v, want 6", over)
	}
	// Threshold at 0.375 sits halfway through the (0.25, 0.5] bucket: half
	// its 4 observations count as over, plus the 2 in the bucket above.
	if over := s.CountOver(0.375); over < 3.9 || over > 4.1 {
		t.Fatalf("CountOver mid-bucket = %v, want ≈4", over)
	}
}
