// Package reqscratch is the request-scoped result storage both front ends
// answer traversals from: graphd's query handlers and graphctl's
// coordinator append khop orders, jaccard rankings and shard adjacency
// exchanges into the request's Scratch instead of allocating them, and an
// ingest request reads its body and decodes its edits into it. The front
// end graphd and graphctl share keeps one Scratch in each pooled request
// trace and resets it once the response is encoded.
//
// Ownership rule: a result built in a Scratch aliases it until Reset, which
// the front end calls after encoding, when the request trace finishes.
// Nothing may keep a result past that; a caller that must copies it out
// first. Under go test, Reset overwrites every buffer with poison, so a
// result read after Reset fails its oracle instead of reading a later
// request's answer.
package reqscratch

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/wire"
)

// Scratch is one request's result storage. Results are appended, so a
// batch's sub-results sit back to back; growth re-allocates, and sub-slices
// handed out earlier keep the old array.
type Scratch struct {
	// Verts holds khop discovery orders.
	Verts []int32
	// Scores is the kernel output of the jaccard ranking in progress.
	Scores []kernels.JaccardPairScore
	// Pairs holds jaccard answers in wire form.
	Pairs []wire.JaccardPair
	// Adj holds shard.adj exchanges in their flat wire form, one per shard
	// (see AdjFor).
	Adj []Adj
	// Lists are the coordinator's adjacency lists of one exchange in the
	// order it asked for them, aliasing Adj.
	Lists [][]int32
	// Body holds an ingest request's body as read from the socket.
	Body []byte
	// Edits holds the edits decoded from Body (wire.AppendEditsJSON). A
	// backend that keeps an edit past the request copies it: graphd's queue
	// and the coordinator's per-shard split both do.
	Edits []wire.IngestEdit
}

// Adj is one shard's side of an adjacency exchange: the vertices asked of
// it, where each sits in the asker's order, and the answer, whose list j
// belongs to Want[j].
type Adj struct {
	// Want are the vertices asked of the shard.
	Want []int32
	// Pos is the position of each of Want in the asker's order.
	Pos []int
	wire.ShardAdjResult
}

// AdjFor empties and returns the first n exchange slots, keeping their
// storage. The coordinator fills slot i for shard i; a shard answering
// shard.adj is the one-shard case and builds its answer in slot 0.
func (s *Scratch) AdjFor(n int) []Adj {
	if n > len(s.Adj) {
		s.Adj = append(s.Adj, make([]Adj, n-len(s.Adj))...)
	}
	adj := s.Adj[:n]
	for i := range adj {
		adj[i].Want, adj[i].Pos = adj[i].Want[:0], adj[i].Pos[:0]
		adj[i].Reset()
	}
	return adj
}

// Reset empties s, keeping its storage; under go test it is poisoned
// first. Every result built in s dies here.
func (s *Scratch) Reset() {
	if testing.Testing() {
		s.poison()
	}
	clear(s.Lists)
	s.Verts, s.Scores, s.Pairs, s.Lists = s.Verts[:0], s.Scores[:0], s.Pairs[:0], s.Lists[:0]
	s.Body, s.Edits = s.Body[:0], s.Edits[:0]
}

// poison overwrites every buffer of s to its capacity with values no answer
// holds: vertices, offsets and edit times -1, scores and edit weights NaN,
// body bytes 0xff (never in UTF-8, so never in JSON).
func (s *Scratch) poison() {
	nan := math.NaN()
	fill(s.Verts[:cap(s.Verts)], -1)
	fill(s.Scores[:cap(s.Scores)], kernels.JaccardPairScore{U: -1, V: -1, Inter: -1, Score: nan})
	fill(s.Pairs[:cap(s.Pairs)], wire.JaccardPair{V: -1, Score: nan, Inter: -1})
	fill(s.Body[:cap(s.Body)], 0xff)
	fill(s.Edits[:cap(s.Edits)], wire.IngestEdit{Src: -1, Dst: -1, Weight: float32(nan), Time: -1})
	for i := range s.Adj {
		a := &s.Adj[i]
		fill(a.Want[:cap(a.Want)], -1)
		fill(a.Pos[:cap(a.Pos)], -1)
		fill(a.Offsets[:cap(a.Offsets)], -1)
		fill(a.Targets[:cap(a.Targets)], -1)
	}
}

// fill sets every element of buf to v.
func fill[T any](buf []T, v T) {
	for i := range buf {
		buf[i] = v
	}
}
