package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The binary wire listener. Each accepted connection is one session:
// hello/version exchange, then a strict request→response loop of
// length-prefixed frames (see internal/wire for the encoding). Every
// request but ping, stats and the shard.meta version probe runs through
// the same dispatch core as HTTP — admission, trace, profiling labels, SLO
// counters — so the protocols differ only in codec cost. Per-connection
// state (frame buffer, decoded Request, response buffer) is reused across
// frames, which is where the protocol's per-request allocation savings
// come from.

// ServeWire accepts wire-protocol sessions on ln until the listener is
// closed (normal shutdown, returns nil) or Accept fails otherwise.
func (s *Server) ServeWire(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveWireConn(conn)
	}
}

// trackWireConn registers an open session for Shutdown to close; it
// reports false once Shutdown has already run.
func (s *Server) trackWireConn(c net.Conn) bool {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.wireConns == nil {
		return false
	}
	s.wireConns[c] = struct{}{}
	return true
}

// untrackWireConn removes a finished session.
func (s *Server) untrackWireConn(c net.Conn) {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	delete(s.wireConns, c)
}

// closeWireConns force-closes all open wire sessions (unblocking their
// frame reads) and refuses new ones; called from Shutdown.
func (s *Server) closeWireConns() {
	s.wireMu.Lock()
	conns := s.wireConns
	s.wireConns = nil
	s.wireMu.Unlock()
	for c := range conns {
		c.Close()
	}
}

// serveWireConn runs one session: hello exchange, then frames until the
// peer disconnects, a protocol violation occurs, or Shutdown closes the
// connection. Write buffering is flushed per response (strict
// request→response, so there is never a second response to coalesce with).
func (s *Server) serveWireConn(conn net.Conn) {
	defer conn.Close()
	if !s.trackWireConn(conn) {
		return
	}
	defer s.untrackWireConn(conn)
	s.m.wireConnsTotal.Inc()
	s.m.wireActive.Add(1)
	defer s.m.wireActive.Add(-1)

	bw := bufio.NewWriterSize(conn, 64<<10)
	if err := wire.WriteHello(bw); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	if _, err := wire.ReadHello(conn); err != nil {
		return
	}

	fr := wire.NewFrameReader(conn, wire.MaxFrame)
	var req wire.Request
	out := make([]byte, 0, 4<<10)
	for {
		frame, err := fr.Next()
		if err != nil {
			return
		}
		out = s.wireRespond(frame, &req, out[:0])
		if err := wire.WriteFrame(bw, out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// wireRespond answers one request frame, appending the response payload to
// out. It mirrors the HTTP front end's query path: resolve the deadline from
// the envelope, mint a trace identity (the wire protocol carries none), then
// hand the decoded request to the shared dispatch core and encode the
// result. Malformed frames answer StatusBadRequest; the session survives.
func (s *Server) wireRespond(frame []byte, req *wire.Request, out []byte) []byte {
	start := time.Now()
	if len(frame) < 2 {
		s.countQuery("wire", 400, time.Since(start).Seconds())
		return wire.AppendErrorResponse(out, wire.StatusBadRequest, "short request frame")
	}
	opName := wire.OpName(frame[0])
	tmicros, n := binary.Uvarint(frame[1:])
	if n <= 0 {
		s.countQuery(opName, 400, time.Since(start).Seconds())
		return wire.AppendErrorResponse(out, wire.StatusBadRequest, "bad timeout varint")
	}
	d := s.resolveTimeout(time.Duration(tmicros) * time.Microsecond)

	// Stats is the cold, admission-free path on HTTP too; answer it before
	// building any trace state.
	if frame[0] == wire.OpStats {
		raw, err := json.Marshal(s.StatsNow())
		if err != nil {
			s.countQuery(opName, 500, time.Since(start).Seconds())
			return wire.AppendErrorResponse(out, wire.StatusInternal, err.Error())
		}
		s.countQuery(opName, 200, time.Since(start).Seconds())
		return wire.AppendRawJSON(append(out, wire.StatusOK), raw)
	}
	if frame[0] == wire.OpPing {
		s.countQuery(opName, 200, time.Since(start).Seconds())
		return append(out, wire.StatusOK)
	}
	// The coordinator's version probe reads one atomic and the configured
	// shape: admission, spans and stages would cost more than the answer.
	if frame[0] == wire.OpShardMeta {
		m := s.shardMeta()
		out = wire.AppendShardMeta(append(out, wire.StatusOK), &m)
		s.countQuery(opName, 200, time.Since(start).Seconds())
		return out
	}

	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	ctx, rt := s.startTrace(ctx, telemetry.NewTraceContext(), opName, start)
	if s.prof.Enabled() {
		s.trackTrace(rt.tc.TraceID)
		defer s.untrackTrace(rt.tc.TraceID)
	}

	st := rt.stage("decode")
	err := wire.DecodeRequest(frame, req)
	var subs []batchSub
	if err == nil && req.Op == wire.OpBatch {
		subs, err = wireBatchSubs(req)
	}
	st.end()
	var res any
	code := http.StatusBadRequest
	switch {
	case err != nil:
		rt.root.SetAttr("status", "400")
	case req.Op == wire.OpIngest:
		res, code, err = s.ingest(rt, req.Edits)
	default:
		res, code, err = s.dispatch(ctx, rt, req, subs)
	}
	if err != nil {
		out = wire.AppendErrorResponse(out, wire.StatusFromHTTP(code), err.Error())
	} else {
		st := rt.stage("encode")
		out = appendWireResult(append(out, wire.StatusFromHTTP(code)), res)
		st.end()
	}
	wall := time.Since(start)
	rt.finish(code, wall)
	s.countQuery(opName, code, wall.Seconds())
	return out
}

// wireBatchSubs decodes a batch request's sub-payloads, each into its own
// Request (the per-connection Request is the envelope's). A sub that fails
// to decode or names an op a batch cannot hold answers its item's 400.
func wireBatchSubs(req *wire.Request) ([]batchSub, error) {
	if len(req.Sub) == 0 {
		return nil, badRequest("batch: no queries")
	}
	if len(req.Sub) > maxBatchSubs {
		return nil, badRequest("batch: %d queries exceeds limit %d", len(req.Sub), maxBatchSubs)
	}
	subs := make([]batchSub, len(req.Sub))
	for i, payload := range req.Sub {
		sub := &subs[i]
		if err := wire.DecodeSubRequest(payload, &sub.req); err != nil {
			sub.err = badRequest("batch query %d: %v", i, err)
		} else if op := sub.req.Op; op == wire.OpIngest || op == wire.OpStats || op == wire.OpPing || op >= wire.OpShardMeta {
			sub.err = badRequest("batch query %d: op %s is not batchable", i, wire.OpName(op))
		}
	}
	return subs, nil
}

// appendWireResult encodes one dispatch result in its binary form. The
// type set is closed (everything run* or runBatch returns).
func appendWireResult(out []byte, res any) []byte {
	switch v := res.(type) {
	case *wire.JaccardResult:
		return wire.AppendJaccardResult(out, v)
	case *wire.KHopResult:
		return wire.AppendKHopResult(out, v)
	case *wire.TopDegreeResult:
		return wire.AppendTopDegreeResult(out, v)
	case *wire.ComponentResult:
		return wire.AppendComponentResult(out, v)
	case *wire.PageRankResult:
		return wire.AppendPageRankResult(out, v)
	case *wire.ShardDegreesResult:
		return wire.AppendShardDegreesResult(out, v)
	case *wire.ShardWCCResult:
		return wire.AppendShardWCCResult(out, v)
	case *wire.ShardPRStepResult:
		return wire.AppendShardPRStepResult(out, v)
	case *wire.ShardAdjResult:
		return wire.AppendShardAdjResult(out, v)
	case *wire.IngestResult:
		return wire.AppendIngestResult(out, v)
	case []batchItem:
		out = binary.AppendUvarint(out, uint64(len(v)))
		for _, item := range v {
			// Encode the sub-response in place, then open a gap in front
			// of it for its length prefix.
			mark := len(out)
			if item.Err != "" {
				out = wire.AppendErrorResponse(out, wire.StatusFromHTTP(item.Status), item.Err)
			} else {
				out = appendWireResult(append(out, wire.StatusOK), item.Result)
			}
			n := len(out) - mark
			out = binary.AppendUvarint(out, uint64(n))
			prefix := len(out) - mark - n
			copy(out[mark+prefix:], out[mark:mark+n])
			binary.PutUvarint(out[mark:mark+prefix], uint64(n))
		}
		return out
	default:
		// Unreachable by construction; answer something decodable in place of
		// the StatusOK byte every caller has just appended.
		return wire.AppendErrorResponse(out[:len(out)-1], wire.StatusInternal, "unencodable result")
	}
}
