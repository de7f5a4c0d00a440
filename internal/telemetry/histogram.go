package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log-scale (base-2) buckets chosen for
// latencies observed in seconds. Bucket i covers (2^(minExp+i-1), 2^(minExp+i)];
// the first bucket also absorbs everything at or below its bound and the
// last bucket absorbs everything above. With minExp = -31 the smallest
// bound is ~0.47 ns and 60 buckets reach 2^28 s, so any realistic latency
// (and most non-latency magnitudes) lands in a real bucket.
const (
	histMinExp     = -31
	histNumBuckets = 60
)

// BucketBound returns the upper bound (inclusive, "le") of bucket i.
func BucketBound(i int) float64 {
	return math.Ldexp(1, histMinExp+i)
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	// Frexp: v = frac × 2^exp with frac in [0.5, 1), so v ∈ [2^(exp-1), 2^exp).
	// Exact powers of two (frac == 0.5) belong to the lower bucket because
	// bounds are inclusive ("le").
	frac, exp := math.Frexp(v)
	if frac == 0.5 {
		exp--
	}
	i := exp - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histNumBuckets {
		return histNumBuckets - 1
	}
	return i
}

// Histogram accumulates observations into fixed log-scale buckets. All
// methods are safe for concurrent use and safe on a nil receiver (no-op).
type Histogram struct {
	noop    bool
	count   atomic.Int64
	sumBits atomic.Uint64
	buckets [histNumBuckets]atomic.Int64
}

func newHistogram() *Histogram { return &Histogram{} }

// Live reports whether observations on h actually record anything — use it
// to skip the cost of producing the observation (e.g. time.Now pairs) when
// instrumentation is disabled.
func (h *Histogram) Live() bool { return h != nil && !h.noop }

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || h.noop || math.IsNaN(v) {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the latency from start to now in seconds.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound ("le").
	UpperBound float64
	// Count is the number of observations in this bucket alone (not
	// cumulative).
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []Bucket // non-empty buckets, ascending by bound
}

// Snapshot copies the histogram state. Buckets are read without a global
// lock, the standard trade for a lock-free hot path, so under concurrent
// writers a snapshot can miss observations still landing. Its Count is the
// sum of the bucket counts it read, not the live counter, so every snapshot
// is consistent with itself — Prometheus _count equals the +Inf bucket —
// and the difference of two snapshots (a windowed delta) has a bucket sum
// equal to its count. Sum is read apart and may run ahead of the buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil || h.noop {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Sum: h.Sum()}
	for i := 0; i < histNumBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{UpperBound: BucketBound(i), Count: n})
			s.Count += n
		}
	}
	return s
}

// Mean returns the mean observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts.
// Within the chosen bucket it interpolates linearly between the bucket's
// bounds, so the estimate is exact to within one power-of-two bucket.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for _, b := range s.Buckets {
		prev := seen
		seen += float64(b.Count)
		if seen >= rank {
			lo := b.UpperBound / 2
			if lo < 0 {
				lo = 0
			}
			if b.Count == 0 {
				return b.UpperBound
			}
			frac := (rank - prev) / float64(b.Count)
			return lo + frac*(b.UpperBound-lo)
		}
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}
