package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Protocol constants. The magic/version pair travels once per connection in
// the hello exchange; op and status bytes travel once per frame.
const (
	// Magic is the connection hello magic, the bytes "GWR1" read little-endian.
	Magic uint32 = 0x31525747
	// Version is the protocol version this package speaks.
	Version byte = 1
	// MaxFrame caps one frame's payload. A length prefix larger than this is
	// a protocol error, so a hostile peer cannot make the reader balloon.
	MaxFrame = 32 << 20
	// helloSize is the fixed byte length of the hello exchange per direction.
	helloSize = 5
)

// Op codes, one per request kind. They mirror the HTTP endpoints 1:1 plus
// the batch envelope.
const (
	// OpPing is an empty liveness round-trip.
	OpPing byte = 1
	// OpStats requests the server's Stats payload (JSON body; cold path).
	OpStats byte = 2
	// OpIngest submits a batch of graph edits.
	OpIngest byte = 3
	// OpJaccard requests per-vertex Jaccard similarity scores.
	OpJaccard byte = 4
	// OpKHop requests the k-hop neighborhood of seed vertices.
	OpKHop byte = 5
	// OpTopDegree requests the k highest-degree vertices.
	OpTopDegree byte = 6
	// OpComponent requests a vertex's connected-component summary.
	OpComponent byte = 7
	// OpPageRank requests one vertex's rank or the top-k ranks.
	OpPageRank byte = 8
	// OpBatch wraps many sub-requests in one frame (one admission, one trace).
	OpBatch byte = 9
)

// Response status codes, the wire projection of the HTTP status classes the
// JSON API answers with.
const (
	// StatusOK is a successful response carrying an op-specific body.
	StatusOK byte = 0
	// StatusBadRequest maps HTTP 400 (malformed or out-of-range request).
	StatusBadRequest byte = 1
	// StatusDeadline maps HTTP 504 (deadline exceeded before or during work).
	StatusDeadline byte = 2
	// StatusBackpressure maps HTTP 429 (ingest queue full; the body still
	// carries the IngestResult with the accepted prefix).
	StatusBackpressure byte = 3
	// StatusUnavailable maps HTTP 503 (draining).
	StatusUnavailable byte = 4
	// StatusInternal maps HTTP 500.
	StatusInternal byte = 5
)

// HTTPStatus translates a wire status byte to its HTTP equivalent, so both
// protocols share metric labels and SLO accounting.
func HTTPStatus(status byte) int {
	switch status {
	case StatusOK:
		return 200
	case StatusBadRequest:
		return 400
	case StatusDeadline:
		return 504
	case StatusBackpressure:
		return 429
	case StatusUnavailable:
		return 503
	default:
		return 500
	}
}

// StatusFromHTTP translates an HTTP status code to the wire status byte.
func StatusFromHTTP(code int) byte {
	switch {
	case code < 300:
		return StatusOK
	case code == 400, code < 500 && code != 429:
		return StatusBadRequest
	case code == 429:
		return StatusBackpressure
	case code == 503:
		return StatusUnavailable
	case code == 504:
		return StatusDeadline
	default:
		return StatusInternal
	}
}

// Error is a request failure carrying the HTTP status it is answered with:
// the one error type graphd, graphctl and the coordinator build, sent over
// the wire protocol as StatusFromHTTP(Code), and the one a Client returns
// for a non-OK response, Code translated back by HTTPStatus.
type Error struct {
	// Code is the HTTP status the failure answers with.
	Code int
	// Msg is the client-facing message.
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Msg }

// Errorf builds an Error with a formatted message.
func Errorf(code int, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// StatusOf maps a request error to the HTTP status it is answered with: an
// Error's own code (a shard's included), 504 once the request's deadline
// has passed or it was cancelled, and 500 for anything else.
func StatusOf(err error) int {
	var e *Error
	switch {
	case errors.As(err, &e):
		return e.Code
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return 504
	default:
		return 500
	}
}

// WriteHello writes one side's hello (magic + version) to w.
func WriteHello(w io.Writer) error {
	var b [helloSize]byte
	binary.LittleEndian.PutUint32(b[:4], Magic)
	b[4] = Version
	_, err := w.Write(b[:])
	return err
}

// ReadHello reads and validates the peer's hello, returning the version it
// offered. The caller decides compatibility (the server answers with its
// own hello; versions must match exactly at v1).
func ReadHello(r io.Reader) (byte, error) {
	var b [helloSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("wire: hello: %w", err)
	}
	if m := binary.LittleEndian.Uint32(b[:4]); m != Magic {
		return 0, fmt.Errorf("wire: bad hello magic %#x", m)
	}
	return b[4], nil
}

// WriteFrame writes one length-prefixed frame to w. Callers on the hot path
// pass a *bufio.Writer and flush once per response, so a frame costs one
// syscall and no allocation: the length prefix is appended in the writer's
// spare buffer.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame %d bytes exceeds max %d", len(payload), MaxFrame)
	}
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		hdr = bw.AvailableBuffer()
	}
	if _, err := w.Write(binary.AppendUvarint(hdr, uint64(len(payload)))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// FrameReader reads length-prefixed frames from a stream, recycling one
// growable buffer. The returned payload is valid only until the next call.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	max int
}

// NewFrameReader wraps r; max caps the accepted payload length (<= 0 means
// MaxFrame).
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 || max > MaxFrame {
		max = MaxFrame
	}
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10), max: max}
}

// frameGrowStep bounds how much buffer is grown ahead of bytes actually
// received, so a hostile length prefix costs at most one step of memory.
const frameGrowStep = 1 << 20

// Next reads one frame and returns its payload. The buffer grows in bounded
// steps as bytes actually arrive: a peer claiming a huge frame must send it
// before the reader commits the memory.
func (fr *FrameReader) Next() ([]byte, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return nil, err
	}
	if n > uint64(fr.max) {
		return nil, fmt.Errorf("wire: frame %d bytes exceeds max %d", n, fr.max)
	}
	need := int(n)
	if cap(fr.buf) < need && cap(fr.buf) < frameGrowStep {
		grow := need
		if grow > frameGrowStep {
			grow = frameGrowStep
		}
		fr.buf = make([]byte, 0, grow)
	}
	fr.buf = fr.buf[:0]
	for len(fr.buf) < need {
		chunk := need - len(fr.buf)
		if chunk > frameGrowStep {
			chunk = frameGrowStep
		}
		at := len(fr.buf)
		if cap(fr.buf) < at+chunk {
			next := make([]byte, at, at+chunk)
			copy(next, fr.buf)
			fr.buf = next
		}
		fr.buf = fr.buf[:at+chunk]
		if _, err := io.ReadFull(fr.r, fr.buf[at:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("wire: frame body: %w", err)
		}
	}
	return fr.buf, nil
}

// Reader decodes a frame payload in place with a sticky error: after the
// first malformed field every subsequent read returns zero values, so
// decode loops need exactly one error check at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps one frame payload for decoding.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the sticky decode error, nil while the payload is well-formed.
func (r *Reader) Err() error { return r.err }

// Remaining returns the undecoded byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail("truncated byte at %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Vertex decodes a non-negative vertex ID (uvarint capped to int32).
func (r *Reader) Vertex() int32 {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.fail("vertex %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// F32 decodes a little-endian IEEE-754 float32.
func (r *Reader) F32() float32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("truncated f32 at %d", r.off)
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.off:]))
	r.off += 4
	return v
}

// F64 decodes a little-endian IEEE-754 float64.
func (r *Reader) F64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("truncated f64 at %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Bytes decodes n raw bytes, aliasing the payload (valid until the next
// FrameReader.Next).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated %d-byte field at %d", n, r.off)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// String decodes a uvarint-length-prefixed UTF-8 string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.Remaining()) {
		r.fail("string length %d exceeds remaining %d", n, r.Remaining())
		return ""
	}
	return string(r.Bytes(int(n)))
}

// AppendF32 appends a little-endian IEEE-754 float32.
func AppendF32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// AppendF64 appends a little-endian IEEE-754 float64.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// OpName returns the metric/endpoint label for an op byte — identical to
// the HTTP endpoint label, so both protocols share server_queries_total,
// latency histograms, and SLO objectives.
func OpName(op byte) string {
	switch op {
	case OpPing:
		return "ping"
	case OpStats:
		return "stats"
	case OpIngest:
		return "ingest"
	case OpJaccard:
		return "jaccard"
	case OpKHop:
		return "khop"
	case OpTopDegree:
		return "topdegree"
	case OpComponent:
		return "component"
	case OpPageRank:
		return "pagerank"
	case OpBatch:
		return "batch"
	case OpShardMeta:
		return "shard.meta"
	case OpShardDegrees:
		return "shard.degrees"
	case OpShardWCC:
		return "shard.wcc"
	case OpShardPRStep:
		return "shard.prstep"
	case OpShardAdj:
		return "shard.adj"
	default:
		return "unknown"
	}
}
