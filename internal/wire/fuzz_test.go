package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"
)

// FuzzWireDecode drives the request decoder (the server's untrusted-input
// surface) with arbitrary frame payloads. The decoder must never panic,
// never allocate proportionally to a hostile count field, and must re-encode
// accepted requests to a payload that decodes to the same request. Every
// decoded request and sub-request then meets the input boundary behind the
// decoder, Request.Check and CheckEdits (see checkNamesInRange).
func FuzzWireDecode(f *testing.F) {
	seeds := []*Request{
		{Op: OpPing},
		{Op: OpStats, TimeoutMicros: 250000},
		{Op: OpJaccard, U: 3, Threshold: 0.25},
		{Op: OpKHop, K: 2, Seeds: []int32{0, 5, 9}},
		{Op: OpTopDegree, K: 8},
		{Op: OpComponent, V: 7},
		{Op: OpPageRank, HasV: true, V: 2},
		{Op: OpPageRank, K: 10},
		{Op: OpIngest, Edits: []IngestEdit{{Src: 1, Dst: 2}, {Src: 3, Dst: 4, Weight: 1.5, Time: 99, Delete: true}}},
	}
	var batchSubs [][]byte
	for _, s := range seeds[2:5] {
		batchSubs = append(batchSubs, AppendSubRequest(nil, s))
	}
	seeds = append(seeds, &Request{Op: OpBatch, TimeoutMicros: 1000, Sub: batchSubs})
	for _, s := range seeds {
		f.Add(AppendRequest(nil, s))
	}
	// Hand-built adversarial shapes: hostile counts, truncation, bad ops.
	f.Add([]byte{OpKHop, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{OpIngest, 0, 0xff, 0xff, 0x7f})
	f.Add([]byte{OpBatch, 0, 0x02, 0x7f})
	f.Add([]byte{0xee, 0x00})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if err := DecodeRequest(payload, &req); err != nil {
			return
		}
		// Accepted payloads must survive an encode/decode round trip.
		re := AppendRequest(nil, &req)
		var req2 Request
		if err := DecodeRequest(re, &req2); err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if req2.Op != req.Op || req2.TimeoutMicros != req.TimeoutMicros {
			t.Fatalf("round trip changed envelope: %+v vs %+v", req, req2)
		}
		checkNamesInRange(t, &req)
		// Batch sub-payloads must each decode (or fail) without panicking,
		// and nested batches must be rejected.
		if req.Op == OpBatch {
			var sub Request
			for _, raw := range req.Sub {
				err := DecodeSubRequest(raw, &sub)
				if err == nil && sub.Op == OpBatch {
					t.Fatal("nested batch accepted")
				}
				if err == nil {
					checkNamesInRange(t, &sub)
				}
			}
		}
	})
}

// checkNamesInRange runs Check, and CheckEdits on an ingest's edits, at a
// few vertex counts. Neither may panic, and a request either passes must
// name only vertices in [0, vertices): its U, V, seeds or edit endpoints.
func checkNamesInRange(t *testing.T, req *Request) {
	for _, n := range []int32{1, 64, math.MaxInt32} {
		var named []int32
		switch req.Op {
		case OpJaccard:
			named = []int32{req.U}
		case OpComponent:
			named = []int32{req.V}
		case OpPageRank:
			if req.HasV {
				named = []int32{req.V}
			}
		case OpKHop, OpShardAdj:
			named = req.Seeds
		}
		ok := req.Check(n) == nil
		if req.Op == OpIngest {
			for _, e := range req.Edits {
				named = append(named, e.Src, e.Dst)
			}
			ok = CheckEdits(req.Edits, n) == nil
		}
		for _, v := range named {
			if ok && (v < 0 || v >= n) {
				t.Fatalf("%s request naming vertex %d passed the check at %d vertices: %+v", OpName(req.Op), v, n, req)
			}
		}
	}
}

// FuzzWireResponseDecode drives the client-side response body decoders with
// arbitrary bytes — they face an untrusted server and must fail cleanly.
// Adjacency bodies are also decoded by the per-list oracle, into a result
// that still holds an earlier answer, and the two decoders must agree.
func FuzzWireResponseDecode(f *testing.F) {
	v, rank := int32(4), 0.25
	f.Add(byte(OpJaccard), AppendJaccardResult(nil, &JaccardResult{U: 1, Results: []JaccardPair{{V: 2, Score: 0.5, Inter: 1}}}))
	f.Add(byte(OpKHop), AppendKHopResult(nil, &KHopResult{Seeds: []int32{1}, K: 1, Vertices: []int32{1, 2}}))
	f.Add(byte(OpTopDegree), AppendTopDegreeResult(nil, &TopDegreeResult{K: 1, Results: []ScoredVertex{{V: 3, Score: 9}}}))
	f.Add(byte(OpComponent), AppendComponentResult(nil, &ComponentResult{V: 1, Component: 0, Size: 2, NumComponents: 1, Version: 1}))
	f.Add(byte(OpPageRank), AppendPageRankResult(nil, &PageRankResult{V: &v, Rank: &rank, Iterations: 10, Version: 2}))
	f.Add(byte(OpIngest), AppendIngestResult(nil, &IngestResult{Accepted: 3, Depth: 1}))
	f.Add(byte(OpStats), AppendRawJSON(nil, []byte(`{"edges":1}`)))
	f.Add(byte(0xee), []byte{0x01, 0x02})
	// The five shard-exchange answers, shard.meta ready and not.
	f.Add(byte(OpShardMeta), AppendShardMeta(nil, &ShardMeta{Index: 1, Count: 2, Vertices: 1 << 14, Directed: true, Owned: 8190, Version: 7, Ready: true}))
	f.Add(byte(OpShardMeta), AppendShardMeta(nil, &ShardMeta{Index: 0, Count: 2, Vertices: 1 << 14, Owned: 8194, Version: 7, Detail: "draining: server is draining"}))
	f.Add(byte(OpShardDegrees), AppendShardDegreesResult(nil, &ShardDegreesResult{Version: 3, Degrees: []int64{0, 4, 1 << 20}}))
	f.Add(byte(OpShardWCC), AppendShardWCCResult(nil, &ShardWCCResult{Version: 3, Labels: []int32{0, 0, 2}}))
	f.Add(byte(OpShardPRStep), AppendShardPRStepResult(nil, &ShardPRStepResult{Version: 3, Contrib: []float64{0.5, 0, 0.25}}))
	adj := &ShardAdjResult{Version: 9}
	adj.Reset()
	for _, l := range [][]int32{{1, 2, 3}, {}, {4095}, {}} {
		adj.AppendList(l)
	}
	f.Add(byte(OpShardAdj), AppendShardAdjResult(nil, adj))
	f.Add(byte(OpShardAdj), []byte{1, 3, 0, 0, 0})    // three lists of length zero
	f.Add(byte(OpShardAdj), []byte{1, 2, 5, 1, 2})    // a list length past the end
	f.Add(byte(OpShardAdj), []byte{1, 2, 1, 7, 0x7f}) // the second list overruns
	f.Add(byte(OpShardAdj), []byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		r := NewReader(bytes.Clone(body))
		_, _ = DecodeResult(op, &r)
		if op == OpShardAdj {
			into := ShardAdjResult{Version: adj.Version, Offsets: slices.Clone(adj.Offsets), Targets: slices.Clone(adj.Targets)}
			checkShardAdjAgainstLists(t, body, &into)
		}
	})
}
