package incr

import (
	"testing"

	"repro/internal/dyngraph"
)

// TestLogWindowTrimEvict: Window serves exactly the retained versions,
// Trim drops by consumer progress, and the edit bound evicts the oldest
// batches (never the newest), after which a window reaching back misses.
func TestLogWindowTrimEvict(t *testing.T) {
	edits := make([]dyngraph.Edit, 10)
	l := NewLog(100)
	for v := int64(1); v <= 5; v++ {
		l.Append(v, edits, false)
	}
	window := func(from, to int64, wantOK bool, wantLen int) {
		t.Helper()
		got, ok := l.Window(from, to)
		if ok != wantOK || len(got) != wantLen {
			t.Fatalf("Window(%d, %d) = %d batches, ok=%v; want %d, %v", from, to, len(got), ok, wantLen, wantOK)
		}
		for i, b := range got {
			if b.Version != from+int64(i)+1 {
				t.Fatalf("Window(%d, %d)[%d] is version %d", from, to, i, b.Version)
			}
		}
	}
	window(0, 5, true, 5)
	window(5, 6, false, 0) // not applied yet

	l.Trim(3)
	if b, e := l.Len(); b != 2 || e != 20 {
		t.Fatalf("after Trim(3): %d batches, %d edits; want 2, 20", b, e)
	}
	window(2, 5, false, 0)
	window(3, 5, true, 2)
	window(5, 5, true, 0)

	for v := int64(6); v <= 25; v++ { // 22 batches of 10 edits against a bound of 100
		l.Append(v, edits, false)
	}
	if b, e := l.Len(); b != 10 || e != 100 {
		t.Fatalf("past the bound: %d batches, %d edits; want 10, 100", b, e)
	}
	window(14, 25, false, 0)
	window(15, 25, true, 10)

	l.Append(26, make([]dyngraph.Edit, 500), true) // one batch over the bound is kept alone
	if b, e := l.Len(); b != 1 || e != 500 {
		t.Fatalf("an oversized batch: %d batches, %d edits; want 1, 500", b, e)
	}
	if got, ok := l.Window(25, 26); !ok || !got[0].HadDeletes {
		t.Fatal("the oversized batch is not the window's")
	}
}

// TestLogSteadyStateAllocationFree: a log that is appended to and trimmed
// (or evicted) once per batch reuses dropped batches' storage, so at steady
// state an Append copies the edits and allocates nothing.
func TestLogSteadyStateAllocationFree(t *testing.T) {
	edits := make([]dyngraph.Edit, 50)
	for _, trim := range []bool{true, false} {
		l := NewLog(500)
		v := int64(0)
		step := func() {
			v++
			l.Append(v, edits, false)
			if trim {
				l.Trim(v - 1)
			}
		}
		for i := 0; i < 100; i++ {
			step()
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("trim=%v: %.2f allocations per batch at steady state, want 0", trim, allocs)
		}
	}
}
