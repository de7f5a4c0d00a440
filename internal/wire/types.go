package wire

// Response value types shared by both protocols: internal/server builds one
// of these per query and encodes it as JSON (HTTP) or via the Append*
// functions in response.go (wire). Field tags reproduce the HTTP API's JSON
// keys exactly, so the twin-request equivalence suite can decode both
// transports into the same struct and require equality.

// JaccardPair is one similar vertex in a JaccardResult.
type JaccardPair struct {
	// V is the similar vertex.
	V int32 `json:"v"`
	// Score is the Jaccard coefficient against the query vertex.
	Score float64 `json:"score"`
	// Inter is the common-neighbor count.
	Inter int32 `json:"common_neighbors"`
}

// JaccardResult answers a jaccard query.
type JaccardResult struct {
	// U is the query vertex.
	U int32 `json:"u"`
	// Results are the scored similar vertices, best first.
	Results []JaccardPair `json:"results"`
}

// KHopResult answers a khop query.
type KHopResult struct {
	// Seeds are the query's seed vertices.
	Seeds []int32 `json:"seeds"`
	// K is the hop depth.
	K int32 `json:"k"`
	// Count is len(Vertices).
	Count int `json:"count"`
	// Vertices is the neighborhood in BFS discovery order.
	Vertices []int32 `json:"vertices"`
}

// ScoredVertex is a (vertex, score) result entry. Field names (and thus
// JSON keys) match kernels.ScoredVertex, which the HTTP API has always
// emitted for topdegree and pagerank top-k results.
type ScoredVertex struct {
	// V is the vertex.
	V int32
	// Score is its score (degree, rank, ...).
	Score float64
}

// TopDegreeResult answers a topdegree query.
type TopDegreeResult struct {
	// K is the requested result count.
	K int `json:"k"`
	// Results are the highest-degree vertices, descending.
	Results []ScoredVertex `json:"results"`
}

// ComponentResult answers a component query.
type ComponentResult struct {
	// V is the query vertex.
	V int32 `json:"v"`
	// Component is v's canonical component label.
	Component int32 `json:"component"`
	// Size is the component's member count.
	Size int64 `json:"size"`
	// NumComponents is the snapshot's total component count.
	NumComponents int32 `json:"num_components"`
	// Version is the snapshot version the answer was computed at.
	Version int64 `json:"version"`
}

// PageRankResult answers a pagerank query in either form: single vertex
// (V/Rank set, K/Results empty) or top-k (K/Results set, V/Rank nil).
type PageRankResult struct {
	// V is the query vertex (single-vertex form only).
	V *int32 `json:"v,omitempty"`
	// Rank is v's PageRank score (single-vertex form only).
	Rank *float64 `json:"rank,omitempty"`
	// K is the requested result count (top-k form only).
	K int `json:"k,omitempty"`
	// Results are the top-ranked vertices, descending (top-k form only).
	Results []ScoredVertex `json:"results,omitempty"`
	// Iterations is how many power iterations the rank vector took.
	Iterations int `json:"iterations"`
	// Version is the snapshot version the answer was computed at.
	Version int64 `json:"version"`
}

// IngestResult reports one ingest submission's outcome, in both protocols.
type IngestResult struct {
	// Accepted updates entered the queue (a contiguous prefix).
	Accepted int `json:"accepted"`
	// Rejected updates were refused (queue full; retry this suffix).
	Rejected int `json:"rejected"`
	// Deduped is filled per batch at apply time, 0 here.
	Deduped int `json:"deduped"`
	// Depth is the queue occupancy after admission.
	Depth int `json:"queue_depth"`
}

// ReadyCheck is one check inside a Readiness evaluation: one of graphd's
// components ("draining", "ingest-queue", "snapshot-age", "incr-pending",
// "heap", "slo") or, in graphctl's, its drain state and one check per shard
// ("shard-0", "shard-1", ...).
type ReadyCheck struct {
	// Name identifies the check.
	Name string `json:"name"`
	// OK reports whether the check passes.
	OK bool `json:"ok"`
	// Detail is the human-readable evidence ("depth 120/65536", ...).
	Detail string `json:"detail"`
}

// Readiness is the /readyz payload of both binaries: the verdict and its
// evidence. /readyz answers 200 when Ready, else 503, with this body.
type Readiness struct {
	// Ready is the conjunction of all checks.
	Ready bool `json:"ready"`
	// Checks are the evaluations, in a fixed order.
	Checks []ReadyCheck `json:"checks"`
}
