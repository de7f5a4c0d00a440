package incr

import (
	"sync"

	"repro/internal/dyngraph"
)

// DefaultLogEdits bounds a Log built with a bound <= 0: 256k edits is
// minutes of history at the E11 sustained ingest rate.
const DefaultLogEdits = 1 << 18

// Log holds the applied batches incremental consumers have not all advanced
// over yet, so each can take the window from its own version to the
// newest. The writer appends every applied batch and trims to the oldest
// consumer's version once they have moved on, so the log's size is their
// lag, not the history. It is also bounded by total edits: when appends
// outgrow the bound, the oldest batches are evicted, and a consumer
// standing before them gets a miss from Window — its signal to recompute in
// full and re-seed. Eviction and trimming cost O(1) per batch, amortised.
//
// A Log is safe for concurrent use. A nil *Log keeps nothing: every Window
// misses, which is recompute mode.
type Log struct {
	mu       sync.Mutex
	floor    int64   // every batch with version <= floor has been dropped
	batches  []Batch // batches[head:] are versions floor+1, floor+2, ...
	head     int
	edits    int
	maxEdits int
	spare    []dyngraph.Edit // a dropped batch's storage, for the next Append
}

// NewLog returns an empty log at version 0 holding at most maxEdits edits
// (DefaultLogEdits when maxEdits <= 0).
func NewLog(maxEdits int) *Log {
	if maxEdits <= 0 {
		maxEdits = DefaultLogEdits
	}
	return &Log{maxEdits: maxEdits}
}

// Append records the batch that produced version, the one after the newest
// recorded. The edits are copied, so the caller may reuse its slice.
func (l *Log) Append(version int64, edits []dyngraph.Edit, hadDeletes bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cp := append(l.spare[:0], edits...)
	l.spare = nil
	l.batches = append(l.batches, Batch{Version: version, Edits: cp, HadDeletes: hadDeletes})
	l.edits += len(cp)
	for l.edits > l.maxEdits && len(l.batches)-l.head > 1 {
		l.dropFirst()
	}
	l.settle()
}

// Trim drops every batch at or below version to: no consumer needs them.
func (l *Log) Trim(to int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.head < len(l.batches) && l.batches[l.head].Version <= to {
		l.dropFirst()
	}
	l.settle()
}

// dropFirst drops the oldest batch, keeping its storage for reuse.
func (l *Log) dropFirst() {
	b := &l.batches[l.head]
	l.edits -= len(b.Edits)
	l.floor = b.Version
	if cap(b.Edits) > cap(l.spare) {
		l.spare = b.Edits
	}
	*b = Batch{}
	l.head++
}

// settle moves the live batches to the front once the dropped prefix is at
// least as long, so each batch is moved O(1) times on average.
func (l *Log) settle() {
	if l.head > 0 && l.head >= len(l.batches)-l.head {
		n := copy(l.batches, l.batches[l.head:])
		clear(l.batches[n:])
		l.batches, l.head = l.batches[:n], 0
	}
}

// Window returns the batches spanning versions (from, to], or ok=false when
// the log no longer (or does not yet) cover that window; from == to is an
// empty, ok window. The slice aliases the log and the edits are shared with
// the log's later reuse: both are valid until the next Append or Trim.
func (l *Log) Window(from, to int64) (batches []Batch, ok bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if from > to || from < l.floor {
		return nil, false
	}
	lo, hi := l.head+int(from-l.floor), l.head+int(to-l.floor)
	if hi > len(l.batches) {
		return nil, false
	}
	return l.batches[lo:hi], true
}

// Cap returns the bound on retained edits.
func (l *Log) Cap() int { return l.maxEdits }

// Len returns the retained batch and edit counts.
func (l *Log) Len() (batches, edits int) {
	if l == nil {
		return 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.batches) - l.head, l.edits
}
