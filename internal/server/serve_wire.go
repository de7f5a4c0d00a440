package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"time"

	"repro/internal/dyngraph"
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
// out. It mirrors the HTTP query wrapper: resolve the deadline from the
// envelope, mint a trace identity (the wire protocol carries none), then
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
	d := time.Duration(tmicros) * time.Microsecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}

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
	ctx = context.WithValue(ctx, traceCtxKey{}, telemetry.NewTraceContext())
	ctx, rt := s.startTrace(ctx, nil, opName, start)
	if s.prof.Enabled() {
		s.trackTrace(rt.tc.TraceID)
		defer s.untrackTrace(rt.tc.TraceID)
	}

	endDecode := rt.stage("decode")
	err := wire.DecodeRequest(frame, req)
	endDecode()
	code := 400
	if err != nil {
		rt.root.SetAttr("status", "400")
		out = wire.AppendErrorResponse(out, wire.StatusBadRequest, err.Error())
	} else if req.Op == wire.OpIngest {
		out, code = s.wireIngest(rt, req, out)
	} else {
		var res any
		res, code, err = s.dispatch(ctx, rt, opName, start, s.wireRun(req))
		if err != nil {
			out = wire.AppendErrorResponse(out, wire.StatusFromHTTP(code), err.Error())
		} else {
			endEncode := rt.stage("encode")
			out = append(out, wire.StatusOK)
			out = appendWireResult(out, res)
			endEncode()
		}
	}
	wall := time.Since(start)
	rt.finish(code, wall)
	s.countQuery(opName, code, wall.Seconds())
	return out
}

// wireIngest is the wire twin of handleIngest: same draining refusal, same
// range validation, same enqueue semantics (202 all-accepted / 429 with the
// accepted prefix count). The edit conversion is the "decode" equivalent
// and is staged as such.
func (s *Server) wireIngest(rt *reqTrace, req *wire.Request, out []byte) ([]byte, int) {
	if s.draining.Load() {
		return wire.AppendErrorResponse(out, wire.StatusUnavailable, "server is draining"), 503
	}
	endDecode := rt.stage("decode")
	edits := make([]dyngraph.Edit, len(req.Edits))
	for i, e := range req.Edits {
		edits[i] = dyngraph.Edit{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Time: e.Time, Delete: e.Delete}
	}
	endDecode()
	res, code, err := s.admitEdits(rt, edits)
	if err != nil {
		return wire.AppendErrorResponse(out, wire.StatusBadRequest, err.Error()), code
	}
	status := wire.StatusOK
	if code == 429 {
		status = wire.StatusBackpressure
	}
	endEncode := rt.stage("encode")
	out = append(out, status)
	out = wire.AppendIngestResult(out, &wire.IngestResult{
		Accepted: res.Accepted, Rejected: res.Rejected, Deduped: res.Deduped, Depth: res.Depth,
	})
	endEncode()
	return out, code
}

// wireRun compiles a query request into the dispatch-core run function,
// for both transports: wire sessions decode the request, HTTP builds it from
// the URL (handleQuery) or a batch spec (batchSubFor). The returned closure
// must not retain req past the call (req is reused per frame), so it reads
// every field it needs eagerly.
func (s *Server) wireRun(req *wire.Request) func(context.Context) (any, error) {
	switch req.Op {
	case wire.OpJaccard:
		u, threshold := req.U, req.Threshold
		return func(ctx context.Context) (any, error) { return s.runJaccard(ctx, u, threshold) }
	case wire.OpKHop:
		seeds, k := req.Seeds, req.K
		return func(ctx context.Context) (any, error) { return s.runKHop(ctx, seeds, k) }
	case wire.OpTopDegree:
		k := int(req.K)
		if k == 0 {
			k = 10
		}
		return func(ctx context.Context) (any, error) { return s.runTopDegree(ctx, k) }
	case wire.OpComponent:
		v := req.V
		return func(ctx context.Context) (any, error) { return s.runComponent(ctx, v) }
	case wire.OpPageRank:
		if req.HasV {
			v := req.V
			return func(ctx context.Context) (any, error) { return s.runPageRankVertex(ctx, v) }
		}
		k := int(req.K)
		if k == 0 {
			k = 10
		}
		return func(ctx context.Context) (any, error) { return s.runPageRankTop(ctx, k) }
	case wire.OpBatch:
		subs, err := s.wireBatchSubs(req)
		return func(ctx context.Context) (any, error) {
			if err != nil {
				return nil, err
			}
			return s.runBatch(ctx, subs), nil
		}
	case wire.OpShardDegrees:
		return func(ctx context.Context) (any, error) { return s.runShardDegrees(ctx) }
	case wire.OpShardWCC:
		return func(ctx context.Context) (any, error) { return s.runShardWCC(ctx) }
	case wire.OpShardPRStep:
		rank := req.Rank
		return func(ctx context.Context) (any, error) { return s.runShardPRStep(ctx, rank) }
	case wire.OpShardAdj:
		vertices := req.Seeds
		return func(ctx context.Context) (any, error) { return s.runShardAdj(ctx, vertices) }
	default:
		op := req.Op
		return func(context.Context) (any, error) { return nil, badRequest("unknown op %d", op) }
	}
}

// wireBatchSubs decodes a batch request's sub-payloads into runnable
// batchSubs. Each sub-request decodes into its own Request value (the
// shared per-connection Request is the envelope's), and each closure
// captures its parameters by value so nothing aliases across subs.
func (s *Server) wireBatchSubs(req *wire.Request) ([]batchSub, error) {
	if len(req.Sub) == 0 {
		return nil, badRequest("batch: no queries")
	}
	if len(req.Sub) > maxBatchSubs {
		return nil, badRequest("batch: %d queries exceeds limit %d", len(req.Sub), maxBatchSubs)
	}
	subs := make([]batchSub, len(req.Sub))
	reqs := make([]wire.Request, len(req.Sub))
	for i, payload := range req.Sub {
		if err := wire.DecodeSubRequest(payload, &reqs[i]); err != nil {
			err := badRequest("batch query %d: %v", i, err)
			subs[i] = func(context.Context) (any, error) { return nil, err }
			continue
		}
		if reqs[i].Op == wire.OpIngest || reqs[i].Op == wire.OpStats || reqs[i].Op == wire.OpPing ||
			reqs[i].Op >= wire.OpShardMeta {
			err := badRequest("batch query %d: op %s is not batchable", i, wire.OpName(reqs[i].Op))
			subs[i] = func(context.Context) (any, error) { return nil, err }
			continue
		}
		subs[i] = batchSub(s.wireRun(&reqs[i]))
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
