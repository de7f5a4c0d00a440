package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/wire"
)

// shardConn is the coordinator's handle on one shard: a lazily-dialed wire
// connection (redialed transparently after a shard restart) plus the
// health state maintained by the poll loop.
type shardConn struct {
	index int
	addr  string // the shard's -listen-wire address

	// mu guards client. wire.Client is not safe for concurrent use, so
	// every exchange with this shard is serialized here; fan-outs across
	// shards still run in parallel because each shard has its own conn.
	mu     sync.Mutex
	client *wire.Client

	// stMu guards the poll-loop health fields below.
	stMu      sync.Mutex
	reachable bool   // last shard.meta round-trip succeeded and matched the config
	metaReady bool   // last shard.meta answered Ready
	detail    string // human-readable evidence for the readiness check
	version   int64  // shard snapshot version from the last meta
	owned     int64  // owned-vertex count from the last meta
}

// call runs fn against the shard's wire client under the per-shard lock,
// dialing on first use. A transport error means the shard is unreachable:
// it drops the connection so the next call redials (how a restarted shard
// rejoins) and answers 503. Status errors and coordinator-level errors
// (skew, response validation) keep it — the stream is still framed and
// healthy.
func (sc *shardConn) call(fn func(c *wire.Client) error) error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	var err error
	if sc.client == nil {
		sc.client, err = wire.Dial(sc.addr)
	}
	if err == nil {
		err = fn(sc.client)
	}
	if err == nil || hasStatus(err) {
		return err
	}
	if sc.client != nil {
		sc.client.Close()
		sc.client = nil
	}
	return wire.Errorf(http.StatusServiceUnavailable, "%v", err)
}

// hasStatus reports whether err carries a status of its own — a shard's
// answer or a coordinator verdict — rather than being the transport's.
func hasStatus(err error) bool {
	var we *wire.Error
	return errors.As(err, &we)
}

// closeConn drops the shard's wire connection if open.
func (sc *shardConn) closeConn() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.client != nil {
		sc.client.Close()
		sc.client = nil
	}
}

// meta fetches the shard's identity and validates it against the
// coordinator's expectations: right index, right shard count, same graph
// shape. A mismatched shard is an operator error surfaced at registration,
// never silently queried.
func (c *Coordinator) meta(sc *shardConn, timeout time.Duration) (*wire.ShardMeta, error) {
	var m *wire.ShardMeta
	err := sc.call(func(cl *wire.Client) error {
		var err error
		m, err = cl.ShardMeta(timeout)
		return err
	})
	if err != nil {
		return nil, err
	}
	if m.Index != sc.index || m.Count != len(c.shards) {
		return nil, fmt.Errorf("shard at %s identifies as %d/%d, coordinator expects %d/%d",
			sc.addr, m.Index, m.Count, sc.index, len(c.shards))
	}
	if m.Vertices != c.cfg.Vertices || m.Directed != c.cfg.Directed {
		return nil, fmt.Errorf("shard %d graph shape (vertices=%d directed=%v) disagrees with coordinator (vertices=%d directed=%v)",
			sc.index, m.Vertices, m.Directed, c.cfg.Vertices, c.cfg.Directed)
	}
	return m, nil
}

// pollShard refreshes one shard's health state from a shard.meta
// round-trip: reachability, registration validation and the shard's own
// readiness verdict.
func (c *Coordinator) pollShard(sc *shardConn) {
	m, err := c.meta(sc, c.cfg.PollInterval)
	sc.stMu.Lock()
	defer sc.stMu.Unlock()
	if err != nil {
		sc.reachable = false
		sc.detail = err.Error()
		c.m.shardErrors(sc.index).Inc()
		return
	}
	sc.reachable, sc.metaReady = true, m.Ready
	sc.version, sc.owned = m.Version, m.Owned
	sc.detail = m.Detail
	if m.Ready {
		sc.detail = fmt.Sprintf("version %d, owns %d vertices", m.Version, m.Owned)
	}
}

// pollLoop refreshes every shard's health on the poll interval until Close.
func (c *Coordinator) pollLoop() {
	defer c.pollWG.Done()
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.pollAll()
		}
	}
}

// pollAll polls every shard concurrently and refreshes the ready gauge.
func (c *Coordinator) pollAll() {
	var wg sync.WaitGroup
	for _, sc := range c.shards {
		wg.Add(1)
		go func(sc *shardConn) {
			defer wg.Done()
			c.pollShard(sc)
		}(sc)
	}
	wg.Wait()
	ready := 0
	for _, sc := range c.shards {
		sc.stMu.Lock()
		if sc.ready() {
			ready++
		}
		sc.stMu.Unlock()
	}
	c.m.shardsReady.Set(float64(ready))
}

// ready is the one shard-ready rule: reachable over the wire, registered
// (its last meta matched the coordinator's config), and Ready in that
// meta. The caller holds stMu.
func (sc *shardConn) ready() bool {
	return sc.reachable && sc.metaReady
}

// Readiness evaluates the aggregated cluster readiness from the latest
// poll state, one check per shard in shard-index order: the cluster is
// ready iff every shard is. A not-ready shard's check carries the failing
// checks its meta named. A not-ready cluster still serves the queries it
// can — this is the load-balancer signal, not a circuit breaker.
func (c *Coordinator) Readiness() wire.Readiness {
	r := wire.Readiness{Ready: true}
	for _, sc := range c.shards {
		sc.stMu.Lock()
		ok, detail := sc.ready(), sc.detail
		sc.stMu.Unlock()
		r.Checks = append(r.Checks, wire.ReadyCheck{Name: fmt.Sprintf("shard-%d", sc.index), OK: ok, Detail: detail})
		r.Ready = r.Ready && ok
	}
	return r
}

// ShardStatus is one shard's entry in ClusterStats.
type ShardStatus struct {
	// Index is the shard's partition index.
	Index int `json:"index"`
	// WireAddr is the shard's wire listener address.
	WireAddr string `json:"wire_addr"`
	// Reachable reports the last wire poll outcome.
	Reachable bool `json:"reachable"`
	// Ready reports the shard-ready rule's verdict at the last poll.
	Ready bool `json:"ready"`
	// Version is the shard's snapshot version at the last successful poll.
	Version int64 `json:"version"`
	// Owned is the shard's owned-vertex count at the last successful poll.
	Owned int64 `json:"owned_vertices"`
}

// ClusterStats is the coordinator's /stats payload.
type ClusterStats struct {
	// Vertices is the shared vertex-ID space.
	Vertices int32 `json:"vertices"`
	// Directed reports the graph orientation.
	Directed bool `json:"directed"`
	// Shards is the configured shard count.
	Shards int `json:"shards"`
	// Ready is how many shards currently pass all checks.
	Ready int `json:"shards_ready"`
	// Version is the cluster version (sum of shard versions) at the last
	// successful polls.
	Version int64 `json:"version"`
	// ShardInfo holds one entry per shard in partition order.
	ShardInfo []ShardStatus `json:"shard_info"`
}

// Stats reports the coordinator's view of the cluster from the latest poll
// state (no shard round-trips).
func (c *Coordinator) Stats() ClusterStats {
	st := ClusterStats{
		Vertices: c.cfg.Vertices,
		Directed: c.cfg.Directed,
		Shards:   len(c.shards),
	}
	for _, sc := range c.shards {
		sc.stMu.Lock()
		info := ShardStatus{
			Index:     sc.index,
			WireAddr:  sc.addr,
			Reachable: sc.reachable,
			Ready:     sc.ready(),
			Version:   sc.version,
			Owned:     sc.owned,
		}
		sc.stMu.Unlock()
		if info.Ready {
			st.Ready++
		}
		st.Version += info.Version
		st.ShardInfo = append(st.ShardInfo, info)
	}
	return st
}
