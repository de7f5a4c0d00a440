package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatalf("WriteHello: %v", err)
	}
	if buf.Len() != helloSize {
		t.Fatalf("hello is %d bytes, want %d", buf.Len(), helloSize)
	}
	v, err := ReadHello(&buf)
	if err != nil {
		t.Fatalf("ReadHello: %v", err)
	}
	if v != Version {
		t.Fatalf("hello version = %d, want %d", v, Version)
	}
}

func TestHelloBadMagic(t *testing.T) {
	if _, err := ReadHello(strings.NewReader("JUNK\x01")); err == nil {
		t.Fatal("ReadHello accepted bad magic")
	}
	if _, err := ReadHello(strings.NewReader("GW")); err == nil {
		t.Fatal("ReadHello accepted truncated hello")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		{0x01},
		bytes.Repeat([]byte{0xab}, 300),
		bytes.Repeat([]byte{0xcd}, 3<<20), // multiple grow steps
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
		}
	}
	fr := NewFrameReader(&buf, 0)
	for i, want := range payloads {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want EOF", err)
	}
}

func TestFrameReaderRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binary.AppendUvarint(nil, MaxFrame+1))
	fr := NewFrameReader(&buf, 0)
	if _, err := fr.Next(); err == nil {
		t.Fatal("accepted over-max length prefix")
	}

	// A hostile prefix claiming a huge frame with no bytes behind it must
	// fail on read, not allocate the claimed size up front.
	buf.Reset()
	buf.Write(binary.AppendUvarint(nil, MaxFrame))
	buf.Write([]byte{1, 2, 3})
	fr = NewFrameReader(&buf, 0)
	if _, err := fr.Next(); err == nil {
		t.Fatal("accepted truncated frame")
	}
	if cap(fr.buf) > 2*frameGrowStep {
		t.Fatalf("reader committed %d bytes for an unsent frame", cap(fr.buf))
	}
}

func TestFrameReaderCustomMax(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf, 50)
	if _, err := fr.Next(); err == nil {
		t.Fatal("accepted frame above custom max")
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("WriteFrame accepted oversize payload")
	}
}

func TestReaderPrimitives(t *testing.T) {
	var b []byte
	b = append(b, 0x7f)
	b = binary.AppendUvarint(b, 1<<40)
	b = binary.AppendVarint(b, -12345)
	b = AppendF32(b, 1.5)
	b = AppendF64(b, -2.25)
	b = AppendString(b, "héllo")

	r := NewReader(b)
	if got := r.Byte(); got != 0x7f {
		t.Fatalf("Byte = %#x", got)
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.F32(); got != 1.5 {
		t.Fatalf("F32 = %v", got)
	}
	if got := r.F64(); got != -2.25 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Fatalf("String = %q", got)
	}
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x01})
	_ = r.Byte()
	_ = r.Byte() // truncated — sets error
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Everything after the first error is a zero value, no panic.
	if r.Uvarint() != 0 || r.Varint() != 0 || r.F32() != 0 || r.F64() != 0 || r.String() != "" || r.Bytes(4) != nil {
		t.Fatal("post-error reads not zero")
	}
}

func TestReaderVertexOverflow(t *testing.T) {
	b := binary.AppendUvarint(nil, uint64(math.MaxInt32)+1)
	r := NewReader(b)
	_ = r.Vertex()
	if r.Err() == nil {
		t.Fatal("vertex overflow accepted")
	}
}

func TestStatusMappings(t *testing.T) {
	cases := []struct {
		status byte
		http   int
	}{
		{StatusOK, 200},
		{StatusBadRequest, 400},
		{StatusDeadline, 504},
		{StatusBackpressure, 429},
		{StatusUnavailable, 503},
		{StatusInternal, 500},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.status); got != c.http {
			t.Errorf("HTTPStatus(%d) = %d, want %d", c.status, got, c.http)
		}
		if got := StatusFromHTTP(c.http); got != c.status {
			t.Errorf("StatusFromHTTP(%d) = %d, want %d", c.http, got, c.status)
		}
	}
	if StatusFromHTTP(404) != StatusBadRequest {
		t.Error("404 should map to StatusBadRequest")
	}
	if StatusFromHTTP(204) != StatusOK {
		t.Error("204 should map to StatusOK")
	}
}

func requestRoundTrip(t *testing.T, req *Request) *Request {
	t.Helper()
	payload := AppendRequest(nil, req)
	var got Request
	if err := DecodeRequest(payload, &got); err != nil {
		t.Fatalf("DecodeRequest(%s): %v", OpName(req.Op), err)
	}
	return &got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPing},
		{Op: OpStats, TimeoutMicros: 1500000},
		{Op: OpJaccard, U: 42, Threshold: 0.125},
		{Op: OpKHop, K: 3, Seeds: []int32{0, 7, 99}},
		{Op: OpKHop, K: 1, Seeds: []int32{}},
		{Op: OpTopDegree, K: 10},
		{Op: OpComponent, V: 5},
		{Op: OpPageRank, HasV: true, V: 17},
		{Op: OpPageRank, HasV: false, K: 25},
		{Op: OpIngest, Edits: []IngestEdit{
			{Src: 1, Dst: 2},
			{Src: 3, Dst: 4, Weight: 2.5, Time: -9, Delete: true},
			{Src: 5, Dst: 6, Time: 1234567890},
		}},
	}
	for _, req := range reqs {
		got := requestRoundTrip(t, req)
		if got.Op != req.Op || got.TimeoutMicros != req.TimeoutMicros {
			t.Fatalf("%s: envelope mismatch", OpName(req.Op))
		}
		switch req.Op {
		case OpJaccard:
			if got.U != req.U || got.Threshold != req.Threshold {
				t.Fatalf("jaccard mismatch: %+v", got)
			}
		case OpKHop:
			if got.K != req.K || len(got.Seeds) != len(req.Seeds) {
				t.Fatalf("khop mismatch: %+v", got)
			}
			for i := range req.Seeds {
				if got.Seeds[i] != req.Seeds[i] {
					t.Fatalf("khop seed %d mismatch", i)
				}
			}
		case OpTopDegree, OpPageRank:
			if got.K != req.K || got.HasV != req.HasV || got.V != req.V {
				t.Fatalf("%s mismatch: %+v", OpName(req.Op), got)
			}
		case OpComponent:
			if got.V != req.V {
				t.Fatalf("component mismatch: %+v", got)
			}
		case OpIngest:
			if !reflect.DeepEqual(got.Edits, req.Edits) {
				t.Fatalf("ingest mismatch:\n got %+v\nwant %+v", got.Edits, req.Edits)
			}
		}
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	subs := []*Request{
		{Op: OpComponent, V: 3},
		{Op: OpJaccard, U: 8, Threshold: 0.5},
	}
	var encoded [][]byte
	for _, s := range subs {
		encoded = append(encoded, AppendSubRequest(nil, s))
	}
	req := &Request{Op: OpBatch, TimeoutMicros: 1000, Sub: encoded}
	got := requestRoundTrip(t, req)
	if len(got.Sub) != len(subs) {
		t.Fatalf("sub count = %d, want %d", len(got.Sub), len(subs))
	}
	for i, raw := range got.Sub {
		var sub Request
		if err := DecodeSubRequest(raw, &sub); err != nil {
			t.Fatalf("sub %d: %v", i, err)
		}
		if sub.Op != subs[i].Op {
			t.Fatalf("sub %d op = %d, want %d", i, sub.Op, subs[i].Op)
		}
	}
}

func TestDecodeRequestMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":              {},
		"unknown op":         {0xee, 0x00},
		"truncated envelope": {OpJaccard},
		"jaccard no threshold": func() []byte {
			b := []byte{OpJaccard, 0}
			return binary.AppendUvarint(b, 5)
		}(),
		"khop hostile count": func() []byte {
			b := []byte{OpKHop, 0}
			b = binary.AppendUvarint(b, 2)
			return binary.AppendUvarint(b, 1<<40) // claims 2^40 seeds
		}(),
		"ingest hostile count": func() []byte {
			b := []byte{OpIngest, 0}
			return binary.AppendUvarint(b, 1<<40)
		}(),
		"batch hostile count": func() []byte {
			b := []byte{OpBatch, 0}
			return binary.AppendUvarint(b, 1<<40)
		}(),
		"batch sub overruns": func() []byte {
			b := []byte{OpBatch, 0}
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 100) // sub length > remaining
			return append(b, 0x01)
		}(),
		"trailing garbage": append(AppendRequest(nil, &Request{Op: OpPing}), 0xff),
	}
	var req Request
	for name, payload := range cases {
		if err := DecodeRequest(payload, &req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeSubRequestRejectsNestedBatch(t *testing.T) {
	inner := AppendSubRequest(nil, &Request{Op: OpBatch})
	var req Request
	if err := DecodeSubRequest(inner, &req); err == nil {
		t.Fatal("nested batch accepted")
	}
}

func TestResponseRoundTrips(t *testing.T) {
	t.Run("jaccard", func(t *testing.T) {
		in := &JaccardResult{U: 9, Results: []JaccardPair{{V: 1, Score: 0.75, Inter: 3}, {V: 2, Score: 0.5, Inter: 2}}}
		r := NewReader(AppendJaccardResult(nil, in))
		var out JaccardResult
		if err := DecodeJaccardResult(&r, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("got %+v want %+v", out, in)
		}
	})
	t.Run("khop", func(t *testing.T) {
		in := &KHopResult{Seeds: []int32{4, 5}, K: 2, Count: 3, Vertices: []int32{4, 5, 6}}
		r := NewReader(AppendKHopResult(nil, in))
		var out KHopResult
		if err := DecodeKHopResult(&r, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("got %+v want %+v", out, in)
		}
	})
	t.Run("topdegree", func(t *testing.T) {
		in := &TopDegreeResult{K: 2, Results: []ScoredVertex{{V: 7, Score: 12}, {V: 3, Score: 11}}}
		r := NewReader(AppendTopDegreeResult(nil, in))
		var out TopDegreeResult
		if err := DecodeTopDegreeResult(&r, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("got %+v want %+v", out, in)
		}
	})
	t.Run("component", func(t *testing.T) {
		in := &ComponentResult{V: 4, Component: 1, Size: 900, NumComponents: 3, Version: 17}
		r := NewReader(AppendComponentResult(nil, in))
		var out ComponentResult
		if err := DecodeComponentResult(&r, &out); err != nil {
			t.Fatal(err)
		}
		if out != *in {
			t.Fatalf("got %+v want %+v", out, in)
		}
	})
	t.Run("pagerank single", func(t *testing.T) {
		v, rank := int32(6), 0.0375
		in := &PageRankResult{V: &v, Rank: &rank, Iterations: 20, Version: 5}
		r := NewReader(AppendPageRankResult(nil, in))
		var out PageRankResult
		if err := DecodePageRankResult(&r, &out); err != nil {
			t.Fatal(err)
		}
		if out.V == nil || *out.V != v || out.Rank == nil || *out.Rank != rank ||
			out.Iterations != 20 || out.Version != 5 || out.K != 0 || out.Results != nil {
			t.Fatalf("got %+v", out)
		}
	})
	t.Run("pagerank topk", func(t *testing.T) {
		in := &PageRankResult{K: 2, Results: []ScoredVertex{{V: 1, Score: 0.2}, {V: 2, Score: 0.1}}, Iterations: 18, Version: 4}
		r := NewReader(AppendPageRankResult(nil, in))
		var out PageRankResult
		if err := DecodePageRankResult(&r, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("got %+v want %+v", out, in)
		}
	})
	t.Run("ingest", func(t *testing.T) {
		in := &IngestResult{Accepted: 10, Rejected: 2, Deduped: 1, Depth: 7}
		r := NewReader(AppendIngestResult(nil, in))
		var out IngestResult
		if err := DecodeIngestResult(&r, &out); err != nil {
			t.Fatal(err)
		}
		if out != *in {
			t.Fatalf("got %+v want %+v", out, in)
		}
	})
	t.Run("rawjson", func(t *testing.T) {
		raw := []byte(`{"edges":12}`)
		r := NewReader(AppendRawJSON(nil, raw))
		got, err := DecodeRawJSON(&r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("got %q", got)
		}
	})
	t.Run("error", func(t *testing.T) {
		payload := AppendErrorResponse(nil, StatusBadRequest, "k must be positive")
		r := NewReader(payload)
		if s := r.Byte(); s != StatusBadRequest {
			t.Fatalf("status = %d", s)
		}
		if msg := r.String(); msg != "k must be positive" {
			t.Fatalf("msg = %q", msg)
		}
	})
}

func TestResponseHostileCounts(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 9)     // U
	b = binary.AppendUvarint(b, 1<<50) // hostile result count
	r := NewReader(b)
	var out JaccardResult
	if err := DecodeJaccardResult(&r, &out); err == nil {
		t.Fatal("hostile jaccard count accepted")
	}
	if len(out.Results) != 0 {
		t.Fatalf("allocated %d results for hostile count", len(out.Results))
	}
}

// echoServer answers every request with a fixed response payload, exercising
// the client's framing end-to-end over a real pipe.
func echoServer(t *testing.T, conn net.Conn, respond func(req *Request, b []byte) []byte) {
	t.Helper()
	defer conn.Close()
	if _, err := ReadHello(conn); err != nil {
		return
	}
	if err := WriteHello(conn); err != nil {
		return
	}
	fr := NewFrameReader(conn, 0)
	var req Request
	var out []byte
	for {
		payload, err := fr.Next()
		if err != nil {
			return
		}
		if err := DecodeRequest(payload, &req); err != nil {
			out = AppendErrorResponse(out[:0], StatusBadRequest, err.Error())
		} else {
			out = respond(&req, out[:0])
		}
		if err := WriteFrame(conn, out); err != nil {
			return
		}
	}
}

func TestClientRoundTrip(t *testing.T) {
	cc, sc := net.Pipe()
	go echoServer(t, sc, func(req *Request, b []byte) []byte {
		switch req.Op {
		case OpPing:
			return append(b, StatusOK)
		case OpComponent:
			b = append(b, StatusOK)
			return AppendComponentResult(b, &ComponentResult{V: req.V, Component: 1, Size: 10, NumComponents: 2, Version: 3})
		case OpIngest:
			b = append(b, StatusBackpressure)
			return AppendIngestResult(b, &IngestResult{Accepted: 1, Rejected: 1, Depth: 5})
		case OpJaccard:
			return AppendErrorResponse(b, StatusBadRequest, "u out of range")
		case OpBatch:
			b = append(b, StatusOK)
			b = binary.AppendUvarint(b, uint64(len(req.Sub)))
			for _, raw := range req.Sub {
				var sub Request
				if err := DecodeSubRequest(raw, &sub); err != nil {
					t.Errorf("server sub decode: %v", err)
				}
				item := append([]byte{StatusOK}, AppendComponentResult(nil, &ComponentResult{V: sub.V, Component: 1, Size: 1, NumComponents: 1, Version: 1})...)
				b = binary.AppendUvarint(b, uint64(len(item)))
				b = append(b, item...)
			}
			return b
		}
		return AppendErrorResponse(b, StatusInternal, "unexpected op")
	})

	c, err := NewClient(cc)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer c.Close()

	if err := c.Ping(time.Second); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	comp, err := c.Component(4, time.Second)
	if err != nil {
		t.Fatalf("Component: %v", err)
	}
	if comp.V != 4 || comp.Size != 10 {
		t.Fatalf("Component = %+v", comp)
	}

	res, err := c.Ingest([]IngestEdit{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}, time.Second)
	we, ok := err.(*Error)
	if !ok || we.Code != 429 {
		t.Fatalf("Ingest err = %v, want a 429 Error", err)
	}
	if res == nil || res.Accepted != 1 || res.Rejected != 1 {
		t.Fatalf("Ingest partial result = %+v", res)
	}

	if _, err := c.Jaccard(99, 0, time.Second); err == nil {
		t.Fatal("Jaccard: expected an Error")
	} else if we, ok := err.(*Error); !ok || we.Code != 400 || !strings.Contains(we.Msg, "out of range") {
		t.Fatalf("Jaccard err = %v", err)
	}

	items, err := c.Batch([]*Request{{Op: OpComponent, V: 11}, {Op: OpComponent, V: 12}}, time.Second)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("Batch items = %d", len(items))
	}
	for i, want := range []int32{11, 12} {
		cr, ok := items[i].Result.(*ComponentResult)
		if !ok || cr.V != want {
			t.Fatalf("batch item %d = %+v", i, items[i])
		}
	}
}

func TestClientRejectsVersionMismatch(t *testing.T) {
	cc, sc := net.Pipe()
	go func() {
		defer sc.Close()
		if _, err := ReadHello(sc); err != nil {
			return
		}
		var b [helloSize]byte
		binary.LittleEndian.PutUint32(b[:4], Magic)
		b[4] = Version + 1
		sc.Write(b[:])
	}()
	if _, err := NewClient(cc); err == nil {
		t.Fatal("accepted version mismatch")
	}
	cc.Close()
}

func TestOpNames(t *testing.T) {
	ops := []byte{OpPing, OpStats, OpIngest, OpJaccard, OpKHop, OpTopDegree, OpComponent, OpPageRank, OpBatch,
		OpShardMeta, OpShardDegrees, OpShardWCC, OpShardPRStep, OpShardAdj}
	seen := map[string]bool{}
	for _, op := range ops {
		name := OpName(op)
		if name == "unknown" || seen[name] {
			t.Fatalf("op %d name %q invalid or duplicated", op, name)
		}
		seen[name] = true
	}
	if OpName(0xfe) != "unknown" {
		t.Fatal("unknown op not labeled")
	}
}

// TestDecodeRequestReuse checks that a Request reused across frames does not
// leak state from a previous, larger request.
func TestDecodeRequestReuse(t *testing.T) {
	var req Request
	big := &Request{Op: OpKHop, K: 2, Seeds: []int32{1, 2, 3, 4, 5}}
	if err := DecodeRequest(AppendRequest(nil, big), &req); err != nil {
		t.Fatal(err)
	}
	small := &Request{Op: OpKHop, K: 1, Seeds: []int32{9}}
	if err := DecodeRequest(AppendRequest(nil, small), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Seeds) != 1 || req.Seeds[0] != 9 {
		t.Fatalf("reused request leaked seeds: %v", req.Seeds)
	}
}
