// Package cluster turns N graphd shard processes into one logical graph
// service. It owns the three cluster-only concerns:
//
//   - Partitioning (partition.go): a pure hash of the global vertex ID maps
//     every vertex to exactly one owning shard. Each ingest edit is routed
//     to the owner of both endpoints, so a shard holds the complete
//     adjacency of every vertex it owns (plus partial adjacency of
//     non-owned vertices it shares edges with). Shards and the coordinator
//     derive ownership independently from (vertex, shard count) — no
//     assignment table travels.
//
//   - The shard registry (registry.go): one lazily-dialed wire connection
//     per shard, a health poll loop over shard.meta — the one channel the
//     coordinator hears a shard's health on: the round trip, the
//     registration check and the shard's own /readyz verdict, whose
//     failing checks it names — and the aggregated readiness model the
//     coordinator serves: the cluster is ready iff every shard is ready,
//     one readiness check per shard.
//
//   - The superstep drivers (bsp.go): global kernels run as BSP supersteps
//     — the coordinator holds the dense value vector, each round fans one
//     wire request out to every shard, waits for all responses (the
//     barrier), and combines them in shard order. Combined results are
//     cached per cluster version vector, the sharded twin of graphd's
//     per-version kernel caches.
//
// The Coordinator (coordinator.go) is the backend graphd's own front end
// (internal/server) answers from when cmd/graphctl serves it: that front
// end checks every query and builds every answer, and the coordinator only
// reads state — whole-graph kernels at one version vector (Read) and the
// per-request traversals (KHop, Jaccard). It routes ingest with the same 429 +
// contiguous-accepted-prefix contract (the accepted prefix is the minimum
// over shards of each shard's accepted prefix, mapped back to global batch
// indices), and reproduces single-process results exactly: WCC, k-hop,
// top-degree, and jaccard answers are byte-identical to one graphd holding
// the whole graph, PageRank agrees within the kernel's convergence
// tolerance. The differential e2e suite in internal/server pins this.
package cluster
