package wire

import (
	"encoding/binary"
	"strconv"
)

// IngestEdit is one graph edit, in both protocols: the binary encoding
// below and, with its JSON tags, one element of the HTTP API's POST /ingest
// array.
type IngestEdit struct {
	// Src and Dst are the edge endpoints.
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
	// Weight is the edge weight; 0 means "topology only" (normalized to 1
	// by the ingest pipeline).
	Weight float32 `json:"weight,omitempty"`
	// Time is the edge timestamp.
	Time int64 `json:"time,omitempty"`
	// Delete removes the edge instead of inserting it.
	Delete bool `json:"delete,omitempty"`
}

// DefaultTopK is the result count of a top-k query (topdegree, pagerank's
// top-k form) that names none: K == 0 on the wire, no ?k= over HTTP.
const DefaultTopK = 10

// TopK returns a top-k request's result count, DefaultTopK when unset.
func (r *Request) TopK() int32 {
	if r.K == 0 {
		return DefaultTopK
	}
	return r.K
}

// Check is the one validation rule for a query, on every transport and for
// both binaries, run before any backend sees it. It checks, in this order:
// U, V and every seed in [0, vertices); khop has a seed; khop's depth is
// non-negative; a top-k count is non-negative (0 means DefaultTopK);
// jaccard's threshold is in [0, 1]. NaN fails the threshold rule too —
// every comparison with NaN is false, so it would otherwise answer an empty
// list instead of an error. The first failure is answered, as a 400.
func (r *Request) Check(vertices int32) error {
	name := OpName(r.Op)
	bad := func(v int32) bool { return v < 0 || v >= vertices }
	switch {
	case r.Op == OpJaccard && bad(r.U):
		return Errorf(400, outOfRange, name, r.U, vertices)
	case (r.Op == OpComponent || r.Op == OpPageRank && r.HasV) && bad(r.V):
		return Errorf(400, outOfRange, name, r.V, vertices)
	case r.Op == OpKHop || r.Op == OpShardAdj:
		for _, s := range r.Seeds {
			if bad(s) {
				return Errorf(400, outOfRange, name, s, vertices)
			}
		}
	}
	topK := r.Op == OpTopDegree || r.Op == OpPageRank && !r.HasV
	switch {
	case r.Op == OpKHop && len(r.Seeds) == 0:
		return Errorf(400, "khop: no seed vertices")
	case (r.Op == OpKHop || topK) && r.K < 0:
		return Errorf(400, "%s: k must be non-negative, got %d", name, r.K)
	case r.Op == OpJaccard && !(r.Threshold >= 0 && r.Threshold <= 1):
		return Errorf(400, "jaccard: threshold %g out of [0, 1]", r.Threshold)
	}
	return nil
}

// CheckEdits is ingest's one validation rule: every endpoint in
// [0, vertices). The first bad edit is answered, as a 400 naming its index.
func CheckEdits(edits []IngestEdit, vertices int32) error {
	for i, e := range edits {
		for _, v := range [2]int32{e.Src, e.Dst} {
			if v < 0 || v >= vertices {
				return Errorf(400, outOfRange, "update "+strconv.Itoa(i), v, vertices)
			}
		}
	}
	return nil
}

// outOfRange is the one message for a vertex outside the ID space, led by
// the op or the update it came in.
const outOfRange = "%s: vertex %d out of range [0,%d)"

// Ingest edit flag bits.
const (
	editFlagDelete byte = 1 << 0
	editFlagWeight byte = 1 << 1
	editFlagTime   byte = 1 << 2
)

// Request is the decoded form of one request frame — a reusable union over
// every op's parameters. DecodeRequest truncates and refills the slice
// fields in place, so one Request per connection serves every frame without
// steady-state allocation.
type Request struct {
	// Op selects the request kind (OpJaccard, OpIngest, ...).
	Op byte
	// TimeoutMicros is the client deadline in microseconds (0 = server
	// default), the wire twin of HTTP's ?timeout=.
	TimeoutMicros uint64

	// U is the source vertex for jaccard.
	U int32
	// V is the subject vertex for component, pagerank (when HasV), and the
	// single-seed khop form.
	V int32
	// HasV selects pagerank's single-vertex form over its top-k form.
	HasV bool
	// K is the khop depth or the top-k result count, op-dependent.
	K int32
	// Threshold is jaccard's minimum score filter.
	Threshold float64
	// Seeds are khop's seed vertices, and the requested vertex list for the
	// shard-adjacency op.
	Seeds []int32
	// Rank is the dense rank vector pushed by a shard PageRank superstep.
	Rank []float64
	// Edits are ingest's graph edits.
	Edits []IngestEdit
	// Sub are batch sub-request payloads ([op byte][body]), aliasing the
	// frame buffer — valid until the next frame is read.
	Sub [][]byte
}

// AppendRequest encodes req as a request frame payload.
func AppendRequest(b []byte, req *Request) []byte {
	b = append(b, req.Op)
	b = binary.AppendUvarint(b, req.TimeoutMicros)
	return appendRequestBody(b, req)
}

// AppendSubRequest encodes req as a batch sub-request ([op byte][body], no
// timeout — the batch-level deadline governs every sub-query).
func AppendSubRequest(b []byte, req *Request) []byte {
	b = append(b, req.Op)
	return appendRequestBody(b, req)
}

// appendRequestBody encodes the op-specific request body.
func appendRequestBody(b []byte, req *Request) []byte {
	switch req.Op {
	case OpPing, OpStats:
	case OpJaccard:
		b = binary.AppendUvarint(b, uint64(uint32(req.U)))
		b = AppendF64(b, req.Threshold)
	case OpKHop:
		b = binary.AppendUvarint(b, uint64(uint32(req.K)))
		b = binary.AppendUvarint(b, uint64(len(req.Seeds)))
		for _, s := range req.Seeds {
			b = binary.AppendUvarint(b, uint64(uint32(s)))
		}
	case OpTopDegree:
		b = binary.AppendUvarint(b, uint64(uint32(req.K)))
	case OpComponent:
		b = binary.AppendUvarint(b, uint64(uint32(req.V)))
	case OpPageRank:
		var flags byte
		if req.HasV {
			flags |= 1
		}
		b = append(b, flags)
		if req.HasV {
			b = binary.AppendUvarint(b, uint64(uint32(req.V)))
		} else {
			b = binary.AppendUvarint(b, uint64(uint32(req.K)))
		}
	case OpIngest:
		b = binary.AppendUvarint(b, uint64(len(req.Edits)))
		for _, e := range req.Edits {
			b = binary.AppendUvarint(b, uint64(uint32(e.Src)))
			b = binary.AppendUvarint(b, uint64(uint32(e.Dst)))
			var flags byte
			if e.Delete {
				flags |= editFlagDelete
			}
			if e.Weight != 0 {
				flags |= editFlagWeight
			}
			if e.Time != 0 {
				flags |= editFlagTime
			}
			b = append(b, flags)
			if flags&editFlagWeight != 0 {
				b = AppendF32(b, e.Weight)
			}
			if flags&editFlagTime != 0 {
				b = binary.AppendVarint(b, e.Time)
			}
		}
	case OpBatch:
		b = binary.AppendUvarint(b, uint64(len(req.Sub)))
		for _, sub := range req.Sub {
			b = binary.AppendUvarint(b, uint64(len(sub)))
			b = append(b, sub...)
		}
	case OpShardMeta, OpShardDegrees, OpShardWCC:
	case OpShardPRStep:
		b = binary.AppendUvarint(b, uint64(len(req.Rank)))
		for _, v := range req.Rank {
			b = AppendF64(b, v)
		}
	case OpShardAdj:
		b = binary.AppendUvarint(b, uint64(len(req.Seeds)))
		for _, s := range req.Seeds {
			b = binary.AppendUvarint(b, uint64(uint32(s)))
		}
	}
	return b
}

// DecodeRequest decodes one request frame payload into req, reusing req's
// slices. Malformed input — truncated fields, counts exceeding the bytes
// present, trailing garbage — returns an error without panicking or
// allocating beyond the declared payload.
func DecodeRequest(payload []byte, req *Request) error {
	r := NewReader(payload)
	req.Op = r.Byte()
	req.TimeoutMicros = r.Uvarint()
	decodeRequestBody(&r, req, true)
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		r.fail("%d trailing bytes after %s request", r.Remaining(), OpName(req.Op))
	}
	return r.Err()
}

// DecodeSubRequest decodes one batch sub-request payload into req. Nested
// batches are rejected.
func DecodeSubRequest(payload []byte, req *Request) error {
	r := NewReader(payload)
	req.Op = r.Byte()
	req.TimeoutMicros = 0
	if req.Op == OpBatch {
		r.fail("nested batch request")
	}
	decodeRequestBody(&r, req, false)
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		r.fail("%d trailing bytes after %s sub-request", r.Remaining(), OpName(req.Op))
	}
	return r.Err()
}

// decodeRequestBody decodes the op-specific body. Every count field is
// validated against a per-element floor on the bytes remaining before any
// slice is grown, so a hostile count cannot force an over-allocation.
func decodeRequestBody(r *Reader, req *Request, allowBatch bool) {
	switch req.Op {
	case OpPing, OpStats:
	case OpJaccard:
		req.U = r.Vertex()
		req.Threshold = r.F64()
	case OpKHop:
		req.K = r.Vertex()
		n := r.Uvarint()
		if n > uint64(r.Remaining()) { // each seed is >= 1 byte
			r.fail("khop seed count %d exceeds remaining %d bytes", n, r.Remaining())
			return
		}
		req.Seeds = req.Seeds[:0]
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			req.Seeds = append(req.Seeds, r.Vertex())
		}
	case OpTopDegree:
		req.K = r.Vertex()
	case OpComponent:
		req.V = r.Vertex()
	case OpPageRank:
		flags := r.Byte()
		req.HasV = flags&1 != 0
		if req.HasV {
			req.V = r.Vertex()
		} else {
			req.K = r.Vertex()
		}
	case OpIngest:
		n := r.Uvarint()
		if n > uint64(r.Remaining())/3 { // src + dst + flags is >= 3 bytes
			r.fail("ingest edit count %d exceeds remaining %d bytes", n, r.Remaining())
			return
		}
		req.Edits = req.Edits[:0]
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			var e IngestEdit
			e.Src = r.Vertex()
			e.Dst = r.Vertex()
			flags := r.Byte()
			e.Delete = flags&editFlagDelete != 0
			if flags&editFlagWeight != 0 {
				e.Weight = r.F32()
			}
			if flags&editFlagTime != 0 {
				e.Time = r.Varint()
			}
			req.Edits = append(req.Edits, e)
		}
	case OpBatch:
		if !allowBatch {
			r.fail("nested batch request")
			return
		}
		n := r.Uvarint()
		if n > uint64(r.Remaining())/2 { // length prefix + op is >= 2 bytes
			r.fail("batch count %d exceeds remaining %d bytes", n, r.Remaining())
			return
		}
		req.Sub = req.Sub[:0]
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			l := r.Uvarint()
			if l > uint64(r.Remaining()) {
				r.fail("batch sub-request length %d exceeds remaining %d", l, r.Remaining())
				return
			}
			req.Sub = append(req.Sub, r.Bytes(int(l)))
		}
	case OpShardMeta, OpShardDegrees, OpShardWCC:
	case OpShardPRStep:
		n := r.Uvarint()
		if n > uint64(r.Remaining())/8 { // each rank entry is 8 bytes
			r.fail("shard rank count %d exceeds remaining %d bytes", n, r.Remaining())
			return
		}
		req.Rank = req.Rank[:0]
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			req.Rank = append(req.Rank, r.F64())
		}
	case OpShardAdj:
		n := r.Uvarint()
		if n > uint64(r.Remaining()) { // each vertex is >= 1 byte
			r.fail("shard adjacency vertex count %d exceeds remaining %d bytes", n, r.Remaining())
			return
		}
		req.Seeds = req.Seeds[:0]
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			req.Seeds = append(req.Seeds, r.Vertex())
		}
	default:
		r.fail("unknown op %d", req.Op)
	}
}
