// Package wire implements graphd's length-prefixed binary protocol: the
// same query set as the HTTP+JSON API (jaccard, khop, topdegree, component,
// pagerank, ingest, stats, batch) without the per-request HTTP parsing and
// JSON encode/decode tax, plus the shard-exchange ops (shard.meta,
// shard.degrees, shard.wcc, shard.prstep, shard.adj — see shard.go) that
// carry coordinator↔shard traffic in a sharded cluster. It exists for the
// serving hot path — fan-out clients and shard↔coordinator supersteps —
// where requests/s and allocated bytes per request are the budget, not
// readability.
//
// # Connection lifecycle
//
// A connection opens with a fixed 5-byte hello in each direction: the
// little-endian magic "GWR1" followed by a one-byte protocol version. The
// server answers with the highest version it shares with the client and
// closes the connection on a magic mismatch or disjoint versions, so
// incompatible peers fail at byte 5, not mid-stream.
//
// After the handshake the stream is a sequence of frames in each direction,
// strictly request→response in order (pipelining is the batch op's job).
// A frame is a uvarint payload length followed by that many payload bytes;
// payloads are capped at MaxFrame so a hostile length prefix cannot balloon
// the peer's buffer.
//
// # Requests and responses
//
// A request payload is [op byte][timeout-µs uvarint][op-specific body]; a
// zero timeout means the server default. A response payload is
// [status byte][body]: on StatusOK the body is the op-specific result
// encoding, otherwise a uvarint-length-prefixed UTF-8 error message
// (StatusBackpressure is the exception — partial-accept ingest still
// carries the IngestResult body, mirroring HTTP 429's accepted-prefix
// contract). Integers are uvarints (or varints where negative values are
// legal), floats are little-endian IEEE-754 bits.
//
// The response value types (JaccardResult, ComponentResult, ...) are shared
// with the HTTP layer: internal/server encodes the same struct into JSON
// for HTTP clients and into this binary form for wire clients, which is
// what makes the differential twin-request equivalence test meaningful —
// both protocols answer from identical values, pinned by test.
//
// # Allocation discipline
//
// Encoding appends into caller-owned buffers (Append* functions) and
// decoding parses in place from the frame payload; Request and the response
// structs are designed to be reused across requests (slices are truncated,
// not reallocated), so a warmed-up connection serves the query hot path
// with zero protocol-layer allocations. FrameReader recycles one growable
// buffer; its contents are only valid until the next call, which is all a
// request→decode→respond loop needs. The adjacency exchange is flat for the
// same reason: a ShardAdjResult holds all its lists in one targets array
// indexed by one offsets array, so however many lists a frontier has, a
// decode into storage that held a larger answer allocates nothing.
//
// Decoding is hardened against adversarial input (FuzzWireDecode,
// FuzzWireResponseDecode): counts are validated against the bytes actually
// present before any allocation, and all parse errors are sticky, bounded,
// and panic-free.
//
// The HTTP API's POST /ingest body, a JSON array of IngestEdit, has one
// reader too: AppendEditsJSON, a single-pass parser of exactly the
// documented keys, held to encoding/json as its oracle by FuzzIngestJSON.
package wire
