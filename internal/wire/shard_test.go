package wire

import (
	"reflect"
	"slices"
	"testing"
)

// TestShardRequestRoundTrip pins encode→decode identity for the
// shard-exchange request bodies, including the empty-body ops.
func TestShardRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpShardMeta},
		{Op: OpShardDegrees, TimeoutMicros: 250000},
		{Op: OpShardWCC},
		{Op: OpShardPRStep, Rank: []float64{0.25, 0.5, 0.125, 0.125}},
		{Op: OpShardPRStep, Rank: []float64{}},
		{Op: OpShardAdj, Seeds: []int32{0, 7, 4095}},
	}
	var got Request
	for _, req := range reqs {
		payload := AppendRequest(nil, req)
		if err := DecodeRequest(payload, &got); err != nil {
			t.Fatalf("DecodeRequest(%s): %v", OpName(req.Op), err)
		}
		if got.Op != req.Op || got.TimeoutMicros != req.TimeoutMicros {
			t.Fatalf("%s: envelope mismatch", OpName(req.Op))
		}
		switch req.Op {
		case OpShardPRStep:
			if len(got.Rank) != len(req.Rank) {
				t.Fatalf("prstep rank len = %d, want %d", len(got.Rank), len(req.Rank))
			}
			for i := range req.Rank {
				if got.Rank[i] != req.Rank[i] {
					t.Fatalf("prstep rank[%d] = %v, want %v", i, got.Rank[i], req.Rank[i])
				}
			}
		case OpShardAdj:
			if !reflect.DeepEqual(append([]int32{}, got.Seeds...), append([]int32{}, req.Seeds...)) {
				t.Fatalf("adj vertices = %v, want %v", got.Seeds, req.Seeds)
			}
		}
	}
}

// TestShardMetaRoundTrip pins encode→decode identity for a ready and a
// not-ready shard.meta answer, and that the body from before Ready and
// Detail were appended fails to decode: a shard from an older build fails
// registration, never reads as ready.
func TestShardMetaRoundTrip(t *testing.T) {
	for _, m := range []ShardMeta{
		{Index: 1, Count: 3, Vertices: 4096, Directed: true, Owned: 1365, Version: 42, Ready: true},
		{Index: 0, Count: 2, Vertices: 1 << 20, Owned: 524288, Version: 7, Detail: "draining: server is draining; ingest-queue: depth 9/10 (limit 9)"},
	} {
		var got ShardMeta
		r := NewReader(AppendShardMeta(nil, &m))
		if err := DecodeShardMeta(&r, &got); err != nil || got != m {
			t.Fatalf("DecodeShardMeta(AppendShardMeta(%+v)) = %+v, %v", m, got, err)
		}
	}

	// Index, Count, Vertices, flags, Owned, Version.
	old := []byte{1, 3, 0x80, 0x20, 1, 0xd5, 0x0a, 42}
	var got ShardMeta
	r := NewReader(old)
	if err := DecodeShardMeta(&r, &got); err == nil || got.Ready || got.Version != 42 {
		t.Fatalf("a 6-field shard.meta body decoded as %+v, %v; want its six fields and a decode error", got, err)
	}
}

// TestShardResultRoundTrip pins encode→decode identity for the
// shard-exchange result bodies.
func TestShardResultRoundTrip(t *testing.T) {
	deg := &ShardDegreesResult{Version: 7, Degrees: []int64{0, 3, 12, 1}}
	var gotDeg ShardDegreesResult
	r := NewReader(AppendShardDegreesResult(nil, deg))
	if err := DecodeShardDegreesResult(&r, &gotDeg); err != nil {
		t.Fatalf("DecodeShardDegreesResult: %v", err)
	}
	if !reflect.DeepEqual(&gotDeg, deg) {
		t.Fatalf("ShardDegreesResult = %+v, want %+v", gotDeg, *deg)
	}

	wcc := &ShardWCCResult{Version: 9, Labels: []int32{0, 0, 2, 2, 0}}
	var gotWCC ShardWCCResult
	r = NewReader(AppendShardWCCResult(nil, wcc))
	if err := DecodeShardWCCResult(&r, &gotWCC); err != nil {
		t.Fatalf("DecodeShardWCCResult: %v", err)
	}
	if !reflect.DeepEqual(&gotWCC, wcc) {
		t.Fatalf("ShardWCCResult = %+v, want %+v", gotWCC, *wcc)
	}

	pr := &ShardPRStepResult{Version: 3, Contrib: []float64{0.1, 0, 0.9}}
	var gotPR ShardPRStepResult
	r = NewReader(AppendShardPRStepResult(nil, pr))
	if err := DecodeShardPRStepResult(&r, &gotPR); err != nil {
		t.Fatalf("DecodeShardPRStepResult: %v", err)
	}
	if !reflect.DeepEqual(&gotPR, pr) {
		t.Fatalf("ShardPRStepResult = %+v, want %+v", gotPR, *pr)
	}

	lists := [][]int32{{1, 2, 3}, {}, {4095}}
	adj := &ShardAdjResult{Version: 5}
	adj.Reset()
	for _, l := range lists {
		adj.AppendList(l)
	}
	// Decode twice into the same result: the second decode must replace the
	// first, not append to it.
	var gotAdj ShardAdjResult
	for range 2 {
		r = NewReader(AppendShardAdjResult(nil, adj))
		if err := DecodeShardAdjResult(&r, &gotAdj); err != nil {
			t.Fatalf("DecodeShardAdjResult: %v", err)
		}
	}
	if !reflect.DeepEqual(&gotAdj, adj) {
		t.Fatalf("ShardAdjResult = %+v, want %+v", gotAdj, *adj)
	}
	for i, want := range lists {
		if got := gotAdj.List(i); !slices.Equal(got, want) {
			t.Fatalf("adj list %d = %v, want %v", i, got, want)
		}
	}
}

// decodeShardAdjLists is the per-list decoder the flat DecodeShardAdjResult
// replaced — one fresh slice per neighbor list — kept as its oracle.
func decodeShardAdjLists(r *Reader) (int64, [][]int32, error) {
	version := int64(r.Uvarint())
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.fail("shard adjacency list count %d exceeds remaining %d bytes", n, r.Remaining())
		return 0, nil, r.Err()
	}
	var lists [][]int32
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		l := r.Uvarint()
		if l > uint64(r.Remaining()) {
			r.fail("shard adjacency length %d exceeds remaining %d bytes", l, r.Remaining())
			return 0, nil, r.Err()
		}
		list := make([]int32, 0, l)
		for j := uint64(0); j < l && r.Err() == nil; j++ {
			list = append(list, r.Vertex())
		}
		lists = append(lists, list)
	}
	return version, lists, r.Err()
}

// checkShardAdjAgainstLists decodes body with both adjacency decoders: they
// must accept and reject the same bodies, and agree on what they accept.
// into is decoded into as it stands, so callers can pass a result holding
// an earlier answer.
func checkShardAdjAgainstLists(t *testing.T, body []byte, into *ShardAdjResult) {
	t.Helper()
	r := NewReader(body)
	err := DecodeShardAdjResult(&r, into)
	o := NewReader(body)
	version, lists, oerr := decodeShardAdjLists(&o)
	if (err == nil) != (oerr == nil) {
		t.Fatalf("flat decoder error %v, per-list oracle error %v", err, oerr)
	}
	if err != nil {
		return
	}
	if into.Version != version || into.Len() != len(lists) {
		t.Fatalf("flat decode: version %d, %d lists; oracle: version %d, %d lists", into.Version, into.Len(), version, len(lists))
	}
	for i, want := range lists {
		if got := into.List(i); !slices.Equal(got, want) {
			t.Fatalf("list %d: flat %v, oracle %v", i, got, want)
		}
	}
}

// TestShardAdjFlatMatchesLists holds the flat adjacency decoder to the
// per-list oracle on well-formed bodies (empty lists included), bodies
// whose list lengths overrun the buffer, and truncated bodies, each decoded
// into storage that still holds the previous body's answer.
func TestShardAdjFlatMatchesLists(t *testing.T) {
	var bodies [][]byte
	for _, lists := range [][][]int32{
		{},
		{{}},
		{{}, {}, {}},
		{{0, 1, 2}, {}, {7}, {1 << 20, 3}},
		{{4095}, {}},
	} {
		v := &ShardAdjResult{Version: int64(len(lists))}
		v.Reset()
		for _, l := range lists {
			v.AppendList(l)
		}
		body := AppendShardAdjResult(nil, v)
		bodies = append(bodies, body)
		for cut := 1; cut < len(body); cut++ {
			bodies = append(bodies, body[:cut])
		}
	}
	bodies = append(bodies,
		[]byte{1, 2, 5, 1, 2},    // first list claims 5 vertices, 2 bytes follow
		[]byte{1, 2, 0, 0x7f},    // second list claims 127 vertices of none
		[]byte{1, 1, 0xff, 0x0f}, // list length larger than the body
	)
	var into ShardAdjResult
	for _, body := range bodies {
		checkShardAdjAgainstLists(t, body, &into)
	}
}

// TestShardDecodeHostileCounts checks the per-element byte floors on the
// new count fields: a huge claimed count with a short body must fail
// without allocating.
func TestShardDecodeHostileCounts(t *testing.T) {
	cases := map[string][]byte{
		"prstep rank count": {OpShardPRStep, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"adj vertex count":  {OpShardAdj, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	var req Request
	for name, payload := range cases {
		if err := DecodeRequest(payload, &req); err == nil {
			t.Errorf("%s: hostile count accepted", name)
		}
	}
	var adj ShardAdjResult
	r := NewReader([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	if err := DecodeShardAdjResult(&r, &adj); err == nil {
		t.Error("adj result: hostile list count accepted")
	}
	var deg ShardDegreesResult
	r = NewReader([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	if err := DecodeShardDegreesResult(&r, &deg); err == nil {
		t.Error("degrees result: hostile count accepted")
	}
	var pr ShardPRStepResult
	r = NewReader([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	if err := DecodeShardPRStepResult(&r, &pr); err == nil {
		t.Error("prstep result: hostile count accepted")
	}
}
