package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/wire"
)

// StreamItem is one datum of a Firehose-style key/value stream. The three
// anomaly kernels in the paper's Fig. 1 (fixed key, unbounded key, two-level
// key) consume these. Value carries a "truth bit" in its low bit exactly as
// the Firehose generators do: a key whose observed values are mostly odd is
// anomalous.
type StreamItem struct {
	Key   uint64
	Value uint64
	Truth bool // generator-side ground truth: item belongs to an anomalous key
}

// BiasedKeyStream reproduces the statistical structure of the Firehose
// "power-law biased" generators: keys are drawn from a skewed distribution
// over keyRange, a fraction anomalyFrac of keys are planted anomalous, and
// values of anomalous keys are odd with probability 15/16 while normal keys
// are odd with probability 1/16.
type BiasedKeyStream struct {
	rng         *rand.Rand
	keyRange    uint64
	anomalyFrac float64
	skew        float64
}

// NewBiasedKeyStream creates a stream generator. skew in (0,1] controls key
// bias: each key is drawn as floor(keyRange * u^(1/skew)) so small skew
// concentrates traffic on few keys.
func NewBiasedKeyStream(keyRange uint64, anomalyFrac, skew float64, seed int64) *BiasedKeyStream {
	if skew <= 0 {
		skew = 1
	}
	return &BiasedKeyStream{
		rng:         rand.New(rand.NewSource(seed)),
		keyRange:    keyRange,
		anomalyFrac: anomalyFrac,
		skew:        skew,
	}
}

// isAnomalous deterministically classifies a key via a hash so that the same
// key is consistently anomalous or not across the stream.
func (s *BiasedKeyStream) isAnomalous(key uint64) bool {
	h := splitmix64(key * 0x9e3779b97f4a7c15)
	return float64(h%1_000_000)/1_000_000 < s.anomalyFrac
}

// Next produces the next stream item.
func (s *BiasedKeyStream) Next() StreamItem {
	u := s.rng.Float64()
	// Power-bias toward low keys.
	biased := u
	for i := 0; i < 2; i++ {
		biased *= u
	}
	key := uint64(biased * float64(s.keyRange))
	if key >= s.keyRange {
		key = s.keyRange - 1
	}
	anom := s.isAnomalous(key)
	value := s.rng.Uint64() &^ 1
	oddP := 1.0 / 16
	if anom {
		oddP = 15.0 / 16
	}
	if s.rng.Float64() < oddP {
		value |= 1
	}
	return StreamItem{Key: key, Value: value, Truth: anom}
}

// Generate returns n items.
func (s *BiasedKeyStream) Generate(n int) []StreamItem {
	out := make([]StreamItem, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// TwoLevelStream models the Firehose "two-level" generator: inner keys hash
// to outer keys, anomalies are planted per *outer* key, and an outer key's
// status is only decidable after observing enough distinct inner keys. Each
// item carries the inner key; the kernel must aggregate to the outer key.
type TwoLevelStream struct {
	inner      *BiasedKeyStream
	outerRange uint64
}

// NewTwoLevelStream creates a two-level stream with the given inner and
// outer key ranges.
func NewTwoLevelStream(innerRange, outerRange uint64, anomalyFrac, skew float64, seed int64) *TwoLevelStream {
	return &TwoLevelStream{
		inner:      NewBiasedKeyStream(innerRange, anomalyFrac, skew, seed),
		outerRange: outerRange,
	}
}

// OuterKey maps an inner key to its outer key deterministically.
func (s *TwoLevelStream) OuterKey(inner uint64) uint64 {
	return splitmix64(inner) % s.outerRange
}

// Next produces the next item; Key is the inner key, and Truth/value bias
// are determined by the item's outer key so that aggregation at the outer
// level recovers the signal.
func (s *TwoLevelStream) Next() StreamItem {
	it := s.inner.Next()
	outer := s.OuterKey(it.Key)
	anom := s.inner.isAnomalous(outer * 0x5851f42d4c957f2d)
	it.Truth = anom
	it.Value &^= 1
	oddP := 1.0 / 16
	if anom {
		oddP = 15.0 / 16
	}
	if s.inner.rng.Float64() < oddP {
		it.Value |= 1
	}
	return it
}

// EdgeUpdateStream produces n R-MAT-distributed edge updates over 2^scale
// vertices with the given delete fraction; timestamps increase by 1 per item.
// The updates are the edit record graphd ingests (Fig. 2's left-hand input),
// with weight 0, which an insert stores as 1.
func EdgeUpdateStream(scale int, n int, deleteFrac float64, seed int64) []wire.IngestEdit {
	rng := rand.New(rand.NewSource(seed))
	updates := make([]wire.IngestEdit, 0, n)
	var inserted [][2]int32
	for i := 0; i < n; i++ {
		if deleteFrac > 0 && len(inserted) > 0 && rng.Float64() < deleteFrac {
			j := rng.Intn(len(inserted))
			e := inserted[j]
			inserted[j] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			updates = append(updates, wire.IngestEdit{Src: e[0], Dst: e[1], Delete: true, Time: int64(i)})
			continue
		}
		s, d := rmatEdge(scale, Graph500RMAT, rng)
		if s == d {
			d = (d + 1) % (1 << scale)
		}
		inserted = append(inserted, [2]int32{s, d})
		updates = append(updates, wire.IngestEdit{Src: s, Dst: d, Time: int64(i)})
	}
	return updates
}

// splitmix64 is the standard splitmix64 finalizer used as a cheap
// deterministic hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// String renders a stream item for debugging.
func (it StreamItem) String() string {
	return fmt.Sprintf("{key=%d value=%d truth=%v}", it.Key, it.Value, it.Truth)
}
