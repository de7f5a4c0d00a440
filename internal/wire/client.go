package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// Client speaks the wire protocol over one connection, strictly
// request→response (use Batch, or multiple clients, for concurrency). Not
// safe for concurrent use.
type Client struct {
	conn net.Conn
	fr   *FrameReader
	bw   *bufio.Writer
	wbuf []byte
	req  Request
}

// Dial connects to a graphd wire listener and performs the hello exchange.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (any net.Conn, including
// net.Pipe ends in tests) and performs the hello exchange.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn: conn,
		fr:   NewFrameReader(conn, 0),
		bw:   bufio.NewWriterSize(conn, 64<<10),
		wbuf: make([]byte, 0, 4<<10),
	}
	if err := WriteHello(c.bw); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	v, err := ReadHello(c.conn)
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("wire: server speaks version %d, client %d", v, Version)
	}
	return c, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// do sends req and returns the response reader positioned after the status
// byte. Non-OK statuses are returned as *Error with the server's
// message decoded and the status's HTTP code; statuses listed in okStatuses additionally hand the body
// back for decoding (the ingest backpressure case).
func (c *Client) do(req *Request, okStatuses ...byte) (Reader, byte, error) {
	c.wbuf = AppendRequest(c.wbuf[:0], req)
	if err := WriteFrame(c.bw, c.wbuf); err != nil {
		return Reader{}, 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return Reader{}, 0, err
	}
	payload, err := c.fr.Next()
	if err != nil {
		return Reader{}, 0, err
	}
	r := NewReader(payload)
	status := r.Byte()
	if status == StatusOK {
		return r, status, nil
	}
	for _, ok := range okStatuses {
		if status == ok {
			return r, status, nil
		}
	}
	msg := r.String()
	if r.Err() != nil {
		msg = fmt.Sprintf("<malformed error body: %v>", r.Err())
	}
	return Reader{}, status, &Error{Code: HTTPStatus(status), Msg: msg}
}

// timeoutMicros converts a client deadline to the wire's microsecond field.
func timeoutMicros(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d / time.Microsecond)
}

// Ping round-trips an empty request.
func (c *Client) Ping(timeout time.Duration) error {
	c.req = Request{Op: OpPing, TimeoutMicros: timeoutMicros(timeout)}
	_, _, err := c.do(&c.req)
	return err
}

// Stats fetches the server's stats payload (raw JSON, cold path).
func (c *Client) Stats(timeout time.Duration) (json.RawMessage, error) {
	c.req = Request{Op: OpStats, TimeoutMicros: timeoutMicros(timeout)}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	raw, err := DecodeRawJSON(&r)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(append([]byte(nil), raw...)), nil
}

// Ingest submits edits. On backpressure the partial IngestResult is
// returned alongside an *Error with Code 429, mirroring HTTP 429's accepted-prefix
// contract.
func (c *Client) Ingest(edits []IngestEdit, timeout time.Duration) (*IngestResult, error) {
	c.req = Request{Op: OpIngest, TimeoutMicros: timeoutMicros(timeout), Edits: edits}
	r, status, err := c.do(&c.req, StatusBackpressure)
	if err != nil {
		return nil, err
	}
	out := &IngestResult{}
	if derr := DecodeIngestResult(&r, out); derr != nil {
		return nil, derr
	}
	if status == StatusBackpressure {
		return out, &Error{Code: HTTPStatus(status), Msg: "ingest queue full"}
	}
	return out, nil
}

// Jaccard runs a jaccard query.
func (c *Client) Jaccard(u int32, threshold float64, timeout time.Duration) (*JaccardResult, error) {
	c.req = Request{Op: OpJaccard, TimeoutMicros: timeoutMicros(timeout), U: u, Threshold: threshold}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &JaccardResult{}
	if err := DecodeJaccardResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// KHop runs a khop query.
func (c *Client) KHop(seeds []int32, k int32, timeout time.Duration) (*KHopResult, error) {
	c.req = Request{Op: OpKHop, TimeoutMicros: timeoutMicros(timeout), Seeds: seeds, K: k}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &KHopResult{}
	if err := DecodeKHopResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TopDegree runs a topdegree query.
func (c *Client) TopDegree(k int32, timeout time.Duration) (*TopDegreeResult, error) {
	c.req = Request{Op: OpTopDegree, TimeoutMicros: timeoutMicros(timeout), K: k}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &TopDegreeResult{}
	if err := DecodeTopDegreeResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Component runs a component query.
func (c *Client) Component(v int32, timeout time.Duration) (*ComponentResult, error) {
	c.req = Request{Op: OpComponent, TimeoutMicros: timeoutMicros(timeout), V: v}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &ComponentResult{}
	if err := DecodeComponentResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PageRankVertex fetches one vertex's rank.
func (c *Client) PageRankVertex(v int32, timeout time.Duration) (*PageRankResult, error) {
	c.req = Request{Op: OpPageRank, TimeoutMicros: timeoutMicros(timeout), HasV: true, V: v}
	return c.pageRank()
}

// PageRankTop fetches the k top-ranked vertices.
func (c *Client) PageRankTop(k int32, timeout time.Duration) (*PageRankResult, error) {
	c.req = Request{Op: OpPageRank, TimeoutMicros: timeoutMicros(timeout), HasV: false, K: k}
	return c.pageRank()
}

func (c *Client) pageRank() (*PageRankResult, error) {
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	out := &PageRankResult{}
	if err := DecodePageRankResult(&r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SubResult is one decoded batch sub-response.
type SubResult struct {
	// Op is the sub-request's op byte.
	Op byte
	// Status is the sub-response's wire status.
	Status byte
	// Result is the decoded result value (nil unless Status is StatusOK).
	Result any
	// Err is the server's error message (empty when Status is StatusOK).
	Err string
}

// Batch submits sub-requests in one frame (one admission slot, one trace on
// the server) and decodes each sub-response. Sub-query failures surface in
// the corresponding SubResult, not as a call error.
func (c *Client) Batch(subs []*Request, timeout time.Duration) ([]SubResult, error) {
	encoded := make([][]byte, len(subs))
	ops := make([]byte, len(subs))
	for i, sub := range subs {
		encoded[i] = AppendSubRequest(nil, sub)
		ops[i] = sub.Op
	}
	c.req = Request{Op: OpBatch, TimeoutMicros: timeoutMicros(timeout), Sub: encoded}
	r, _, err := c.do(&c.req)
	if err != nil {
		return nil, err
	}
	n := r.Uvarint()
	if n != uint64(len(subs)) {
		return nil, fmt.Errorf("wire: batch answered %d of %d sub-requests", n, len(subs))
	}
	out := make([]SubResult, 0, len(subs))
	for i := uint64(0); i < n; i++ {
		l := r.Uvarint()
		if l > uint64(r.Remaining()) {
			r.fail("batch sub-response length %d exceeds remaining %d", l, r.Remaining())
			break
		}
		sr := NewReader(r.Bytes(int(l)))
		item := SubResult{Op: ops[i], Status: sr.Byte()}
		if item.Status == StatusOK {
			res, derr := DecodeResult(item.Op, &sr)
			if derr != nil {
				return nil, derr
			}
			item.Result = res
		} else {
			item.Err = sr.String()
		}
		if sr.Err() != nil {
			return nil, sr.Err()
		}
		out = append(out, item)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return out, nil
}

// DecodeResult decodes an op's OK response body into its typed value —
// the generic path used by batch decoding and the CLI.
func DecodeResult(op byte, r *Reader) (any, error) {
	switch op {
	case OpPing:
		return nil, r.Err()
	case OpStats:
		raw, err := DecodeRawJSON(r)
		if err != nil {
			return nil, err
		}
		return json.RawMessage(append([]byte(nil), raw...)), nil
	case OpIngest:
		out := &IngestResult{}
		return out, DecodeIngestResult(r, out)
	case OpJaccard:
		out := &JaccardResult{}
		return out, DecodeJaccardResult(r, out)
	case OpKHop:
		out := &KHopResult{}
		return out, DecodeKHopResult(r, out)
	case OpTopDegree:
		out := &TopDegreeResult{}
		return out, DecodeTopDegreeResult(r, out)
	case OpComponent:
		out := &ComponentResult{}
		return out, DecodeComponentResult(r, out)
	case OpPageRank:
		out := &PageRankResult{}
		return out, DecodePageRankResult(r, out)
	case OpShardMeta:
		out := &ShardMeta{}
		return out, DecodeShardMeta(r, out)
	case OpShardDegrees:
		out := &ShardDegreesResult{}
		return out, DecodeShardDegreesResult(r, out)
	case OpShardWCC:
		out := &ShardWCCResult{}
		return out, DecodeShardWCCResult(r, out)
	case OpShardPRStep:
		out := &ShardPRStepResult{}
		return out, DecodeShardPRStepResult(r, out)
	case OpShardAdj:
		out := &ShardAdjResult{}
		return out, DecodeShardAdjResult(r, out)
	default:
		return nil, fmt.Errorf("wire: unknown op %d", op)
	}
}
